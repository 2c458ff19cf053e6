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
   (source -> request cap 1, request -> box, box -> sink cap slots)
   decides feasibility; on a deficit a second max flow, on the same
   network with unbounded request -> box arcs so that only source and
   sink arcs can be cut, yields the certificate as the source side of
   the minimal minimum cut. *)
let reference_violator bip =
  let module F = Vod_graph.Flow_network in
  let nl = B.n_left bip and nr = B.n_right bip in
  let adj = B.adjacency bip and right_cap = B.right_cap bip in
  let src = 0 and sink = 1 + nl + nr in
  let box r = 1 + nl + r in
  let network ~middle_cap =
    let net = F.create (sink + 1) in
    for l = 0 to nl - 1 do
      ignore (F.add_edge net ~src ~dst:(1 + l) ~cap:1)
    done;
    Array.iteri
      (fun l row ->
        Array.iter
          (fun r -> ignore (F.add_edge net ~src:(1 + l) ~dst:(box r) ~cap:middle_cap))
          row)
      adj;
    Array.iteri
      (fun r c -> ignore (F.add_edge net ~src:(box r) ~dst:sink ~cap:c))
      right_cap;
    net
  in
  let value = Vod_graph.Dinic.max_flow (network ~middle_cap:1) ~src ~sink in
  if value = nl then None
  else begin
    let net = network ~middle_cap:F.infinite_capacity in
    let value' = Vod_graph.Dinic.max_flow net ~src ~sink in
    assert (value' = value);
    let reachable = F.residual_reachable net ~src in
    let reached node = List.filter (fun v -> Vod_util.Bitset.mem reachable (node v)) in
    let requests = reached (fun l -> 1 + l) (List.init nl Fun.id) in
    let servers = reached box (List.init nr Fun.id) in
    let server_slots = List.fold_left (fun acc r -> acc + right_cap.(r)) 0 servers in
    Some { B.requests; servers; server_slots }
  end
