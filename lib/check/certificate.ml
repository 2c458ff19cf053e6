module B = Vod_graph.Bipartite

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

let guarded f = match f () with () -> Ok () | exception Reject m -> Error m

let check_matching (inst : Instance.t) (o : B.outcome) =
  guarded (fun () ->
      if Array.length o.assignment <> inst.n_left then
        reject "assignment length %d <> %d requests" (Array.length o.assignment)
          inst.n_left;
      if Array.length o.right_load <> inst.n_right then
        reject "right_load length %d <> %d boxes" (Array.length o.right_load)
          inst.n_right;
      let load = Array.make inst.n_right 0 in
      let matched = ref 0 in
      Array.iteri
        (fun l r ->
          if r <> -1 then begin
            if r < 0 || r >= inst.n_right then
              reject "request %d assigned to out-of-range box %d" l r;
            if not (Array.mem r inst.adj.(l)) then
              reject "request %d assigned to box %d which cannot serve it" l r;
            load.(r) <- load.(r) + 1;
            incr matched
          end)
        o.assignment;
      Array.iteri
        (fun r c ->
          if c > inst.right_cap.(r) then
            reject "box %d serves %d requests but has only %d slots" r c
              inst.right_cap.(r);
          if c <> o.right_load.(r) then
            reject "box %d: reported load %d <> actual load %d" r o.right_load.(r) c)
        load;
      if o.matched <> !matched then
        reject "reported matched %d <> %d assigned requests" o.matched !matched)

let check_violator (inst : Instance.t) (v : B.violator) =
  guarded (fun () ->
      if v.requests = [] then reject "empty request set is never a violator";
      let seen_l = Array.make inst.n_left false in
      List.iter
        (fun l ->
          if l < 0 || l >= inst.n_left then reject "request %d out of range" l;
          if seen_l.(l) then reject "request %d listed twice" l;
          seen_l.(l) <- true)
        v.requests;
      let in_servers = Array.make inst.n_right false in
      let slots = ref 0 in
      List.iter
        (fun r ->
          if r < 0 || r >= inst.n_right then reject "server %d out of range" r;
          if in_servers.(r) then reject "server %d listed twice" r;
          in_servers.(r) <- true;
          slots := !slots + inst.right_cap.(r))
        v.servers;
      (* the cut must not leak: every box adjacent to X belongs to the
         server side, else X could be served outside the certificate *)
      List.iter
        (fun l ->
          Array.iter
            (fun r ->
              if not in_servers.(r) then
                reject "box %d can serve request %d but is outside the server set" r l)
            inst.adj.(l))
        v.requests;
      if v.server_slots <> !slots then
        reject "claimed server_slots %d <> recomputed %d" v.server_slots !slots;
      if v.server_slots >= List.length v.requests then
        reject "not an obstruction: %d slots can cover %d requests" v.server_slots
          (List.length v.requests))

let deficiency (v : B.violator) = List.length v.requests - v.server_slots

let check_optimal_pair inst (o : B.outcome) v =
  let ( let* ) = Result.bind in
  let* () = check_matching inst o in
  let* () = check_violator inst v in
  let bound = inst.Instance.n_left - deficiency v in
  if o.matched = bound then Ok ()
  else
    Error
      (Printf.sprintf
         "matching (%d) and violator (bound %d) are not tight: one is suboptimal"
         o.matched bound)

(* The flow-cut extractor [B.hall_violator] replaced, kept as its
   independent reference: a Dinic max flow on the network of Lemma 1
   ([Reference.network]) decides feasibility; on a deficit a second
   max flow, on the same network with unbounded request -> box arcs so
   that only source and sink arcs can be cut, yields the certificate
   as the source side of the minimal minimum cut. *)
let reference_violator bip =
  let nl = B.n_left bip and nr = B.n_right bip in
  let right_cap = B.right_cap bip in
  let max_flow (n : Reference.network) = Dinic.max_flow n.net ~src:0 ~sink:n.sink in
  let value = max_flow (Reference.network bip) in
  if value = nl then None
  else begin
    let n = Reference.network ~middle_cap:Flow_network.infinite_capacity bip in
    let value' = max_flow n in
    assert (value' = value);
    let reachable = Flow_network.residual_reachable n.net ~src:0 in
    let reached node = List.filter (fun v -> Vod_util.Bitset.mem reachable (node v)) in
    let requests = reached Reference.request_node (List.init nl Fun.id) in
    let servers = reached (Reference.box_node bip) (List.init nr Fun.id) in
    let server_slots = List.fold_left (fun acc r -> acc + right_cap.(r)) 0 servers in
    Some { B.requests; servers; server_slots }
  end
