open Adept_platform

type t = Agent of Node.t * t list | Server of Node.t

let agent node children = Agent (node, children)

let server node = Server node

let star node servers =
  if servers = [] then invalid_arg "Tree.star: empty server list";
  Agent (node, List.map (fun s -> Server s) servers)

let root_node = function Agent (n, _) | Server n -> n

let rec fold ~agent ~server = function
  | Server n -> server n
  | Agent (n, children) -> agent n (List.map (fold ~agent ~server) children)

let nodes t =
  let rec go acc = function
    | Server n -> n :: acc
    | Agent (n, children) -> List.fold_left go (n :: acc) children
  in
  List.rev (go [] t)

let agents t =
  let rec go acc = function
    | Server _ -> acc
    | Agent (n, children) -> List.fold_left go (n :: acc) children
  in
  List.rev (go [] t)

let servers t =
  let rec go acc = function
    | Server n -> n :: acc
    | Agent (_, children) -> List.fold_left go acc children
  in
  List.rev (go [] t)

let agents_with_degree t =
  let rec go acc = function
    | Server _ -> acc
    | Agent (n, children) -> List.fold_left go ((n, List.length children) :: acc) children
  in
  List.rev (go [] t)

let size t =
  let rec go acc = function
    | Server _ -> acc + 1
    | Agent (_, children) -> List.fold_left go (acc + 1) children
  in
  go 0 t

let agent_count t = List.length (agents t)

let server_count t = List.length (servers t)

let rec depth = function
  | Server _ -> 0
  | Agent (_, []) -> 0
  | Agent (_, children) -> 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 children

let degree = function Server _ -> 0 | Agent (_, children) -> List.length children

let parent_of t id =
  let rec go parent = function
    | Server n -> if Node.id n = id then parent else None
    | Agent (n, children) ->
        if Node.id n = id then parent
        else
          List.fold_left
            (fun acc c -> match acc with Some _ -> acc | None -> go (Some n) c)
            None children
  in
  go None t

let mem t id = List.exists (fun n -> Node.id n = id) (nodes t)

let normalize tree =
  let rec fix ~root tree =
    match tree with
    | Server _ -> [ tree ]
    | Agent (node, children) -> (
        let fixed = List.concat_map (fix ~root:false) children in
        if root then [ Agent (node, fixed) ]
        else
          match fixed with
          | [] -> [ Server node ]
          | [ only ] -> [ Server node; only ]
          | _ -> [ Agent (node, fixed) ])
  in
  match fix ~root:true tree with [ t ] -> t | _ -> assert false

let rec equal a b =
  match (a, b) with
  | Server x, Server y -> Node.equal x y
  | Agent (x, xs), Agent (y, ys) ->
      Node.equal x y && List.length xs = List.length ys && List.for_all2 equal xs ys
  | Server _, Agent _ | Agent _, Server _ -> false

let rec pp_indent indent ppf = function
  | Server n -> Format.fprintf ppf "%sserver %a@." indent Node.pp n
  | Agent (n, children) ->
      Format.fprintf ppf "%sagent  %a@." indent Node.pp n;
      List.iter (pp_indent (indent ^ "  ") ppf) children

let pp ppf t = pp_indent "" ppf t

let rec pp_compact ppf = function
  | Server n -> Format.fprintf ppf "s%d" (Node.id n)
  | Agent (n, children) ->
      Format.fprintf ppf "a%d(%a)" (Node.id n)
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_compact)
        children
