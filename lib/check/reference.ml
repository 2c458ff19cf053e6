module B = Vod_graph.Bipartite
module F = Flow_network

type network = { net : F.t; sink : int; middle : F.arc array array }

let request_node l = 1 + l
let box_node bip r = 1 + B.n_left bip + r

let network ?(middle_cap = 1) bip =
  let nl = B.n_left bip and nr = B.n_right bip in
  let adj = B.adjacency bip in
  let sink = 1 + nl + nr in
  let edges = Array.fold_left (fun acc row -> acc + Array.length row) 0 adj in
  (* src arcs + middle arcs + sink arcs, two arc cells each *)
  let net = F.create ~arc_hint:(2 * (nl + edges + nr)) (sink + 1) in
  for l = 0 to nl - 1 do
    ignore (F.add_edge net ~src:0 ~dst:(request_node l) ~cap:1)
  done;
  let middle =
    Array.mapi
      (fun l row ->
        Array.map
          (fun r ->
            F.add_edge net ~src:(request_node l) ~dst:(box_node bip r) ~cap:middle_cap)
          row)
      adj
  in
  Array.iteri
    (fun r c -> ignore (F.add_edge net ~src:(box_node bip r) ~dst:sink ~cap:c))
    (B.right_cap bip);
  { net; sink; middle }

(* The matching carried by the request -> box arcs of a solved network. *)
let outcome_of_network bip { net; middle; _ } =
  let adj = B.adjacency bip in
  let assignment = Array.make (B.n_left bip) (-1) in
  let right_load = Array.make (B.n_right bip) 0 in
  let matched = ref 0 in
  Array.iteri
    (fun l arcs ->
      Array.iteri
        (fun i a ->
          if F.flow net a > 0 then begin
            let r = adj.(l).(i) in
            assignment.(l) <- r;
            right_load.(r) <- right_load.(r) + 1;
            incr matched
          end)
        arcs)
    middle;
  { B.matched = !matched; assignment; right_load }

(* Hopcroft-Karp over slot expansion: each box is expanded into one unit
   "slot" per upload slot, reducing the capacitated problem to textbook
   Hopcroft-Karp.  Slot ids for box [r] are [slot_start.(r) ..
   slot_start.(r+1) - 1].  Independent of the production core's
   seat-counter representation. *)
let solve_slots bip =
  let n_left = B.n_left bip and n_right = B.n_right bip in
  let adj = B.adjacency bip and right_cap = B.right_cap bip in
  let slot_start = Array.make (n_right + 1) 0 in
  for r = 0 to n_right - 1 do
    slot_start.(r + 1) <- slot_start.(r) + right_cap.(r)
  done;
  let n_slots = slot_start.(n_right) in
  let slot_right = Array.make (max n_slots 1) 0 in
  for r = 0 to n_right - 1 do
    for s = slot_start.(r) to slot_start.(r + 1) - 1 do
      slot_right.(s) <- r
    done
  done;
  let match_left = Array.make n_left (-1) (* left -> slot *) in
  let match_slot = Array.make (max n_slots 1) (-1) (* slot -> left *) in
  let matched = ref 0 in
  let dist = Array.make n_left max_int in
  let queue = Queue.create () in
  let iter_slots l f =
    Array.iter
      (fun r ->
        for s = slot_start.(r) to slot_start.(r + 1) - 1 do
          f s
        done)
      adj.(l)
  in
  let bfs () =
    Queue.clear queue;
    Array.fill dist 0 n_left max_int;
    for l = 0 to n_left - 1 do
      if match_left.(l) = -1 then begin
        dist.(l) <- 0;
        Queue.add l queue
      end
    done;
    let found = ref false in
    while not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      iter_slots l (fun s ->
          match match_slot.(s) with
          | -1 -> found := true
          | l' ->
              if dist.(l') = max_int then begin
                dist.(l') <- dist.(l) + 1;
                Queue.add l' queue
              end)
    done;
    !found
  in
  let rec try_augment l =
    let success = ref false in
    let arcs = adj.(l) in
    let i = ref 0 in
    while (not !success) && !i < Array.length arcs do
      let r = arcs.(!i) in
      let s = ref slot_start.(r) in
      while (not !success) && !s < slot_start.(r + 1) do
        let owner = match_slot.(!s) in
        if owner = -1 || (dist.(owner) = dist.(l) + 1 && try_augment owner) then begin
          match_slot.(!s) <- l;
          match_left.(l) <- !s;
          success := true
        end;
        incr s
      done;
      incr i
    done;
    if not !success then dist.(l) <- max_int;
    !success
  in
  while bfs () do
    for l = 0 to n_left - 1 do
      if match_left.(l) = -1 && try_augment l then incr matched
    done
  done;
  let assignment =
    Array.map (fun s -> if s = -1 then -1 else slot_right.(s)) match_left
  in
  let right_load = Array.make n_right 0 in
  Array.iter (fun r -> if r >= 0 then right_load.(r) <- right_load.(r) + 1) assignment;
  { B.matched = !matched; assignment; right_load }

let solve algorithm bip =
  match algorithm with
  | `Slots -> solve_slots bip
  | (`Dinic | `Push_relabel) as flow ->
      let n = network bip in
      let (_ : int) =
        match flow with
        | `Dinic -> Dinic.max_flow n.net ~src:0 ~sink:n.sink
        | `Push_relabel -> Push_relabel.max_flow n.net ~src:0 ~sink:n.sink
      in
      outcome_of_network bip n
