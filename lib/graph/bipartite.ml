open Vod_util

(* The instance is CSR-backed: [Csr.t] holds the edges (insertion order,
   deduplicated on finalize) and the per-right capacities, and doubles
   as the reusable builder the engine refills every round via [reset].
   [dedup] memoises the sorted [int array array] view still consumed by
   the min-cost/greedy solvers and the vod_check references. *)
type t = {
  csr : Csr.t;
  mutable dedup : int array array option; (* memoised sorted adjacency rows *)
}

let validate_shape ~who ~n_left ~n_right ~right_cap =
  if n_left < 0 || n_right < 0 then invalid_arg (who ^ ": negative size");
  if Array.length right_cap <> n_right then
    invalid_arg (who ^ ": right_cap length mismatch");
  Array.iter (fun c -> if c < 0 then invalid_arg (who ^ ": negative capacity")) right_cap

let create ~n_left ~n_right ~right_cap =
  validate_shape ~who:"Bipartite.create" ~n_left ~n_right ~right_cap;
  let csr = Csr.create () in
  Csr.reset csr ~n_left ~n_right;
  Array.iteri (fun r c -> Csr.set_right_cap csr r c) right_cap;
  { csr; dedup = None }

let reset t ~n_left ~n_right ~right_cap =
  validate_shape ~who:"Bipartite.reset" ~n_left ~n_right ~right_cap;
  Csr.reset t.csr ~n_left ~n_right;
  Array.iteri (fun r c -> Csr.set_right_cap t.csr r c) right_cap;
  t.dedup <- None

let delta_rebuild t ~n_left ~right_cap ~src_of ~fill =
  let n_right = Csr.n_right t.csr in
  validate_shape ~who:"Bipartite.delta_rebuild" ~n_left ~n_right ~right_cap;
  Array.iteri (fun r c -> Csr.set_right_cap t.csr r c) right_cap;
  Csr.rebuild_rows t.csr ~n_left ~src_of ~fill;
  t.dedup <- None

let add_edge t ~left ~right =
  if left < 0 || left >= Csr.n_left t.csr then
    invalid_arg "Bipartite.add_edge: left out of range";
  if right < 0 || right >= Csr.n_right t.csr then
    invalid_arg "Bipartite.add_edge: right out of range";
  Csr.add_edge t.csr ~left ~right;
  t.dedup <- None

let n_left t = Csr.n_left t.csr
let n_right t = Csr.n_right t.csr
let right_cap t = Array.sub (Csr.right_cap_array t.csr) 0 (Csr.n_right t.csr)

let csr t =
  Csr.finalize t.csr;
  t.csr

let adjacency t =
  match t.dedup with
  | Some a -> a
  | None ->
      let a = Csr.to_adjacency t.csr in
      t.dedup <- Some a;
      a

let degree t l = Csr.degree t.csr l

type outcome = { matched : int; assignment : int array; right_load : int array }

let solve ?arena t =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let size = Hopcroft_karp.solve_csr ~arena (csr t) in
  {
    matched = size;
    assignment = Array.sub (Arena.assignment arena) 0 (n_left t);
    right_load = Array.sub (Arena.right_load arena) 0 (n_right t);
  }

(* Successive shortest paths on Lemma 1's network over the sorted
   adjacency: source 0 -> request [1 + l] (cap 1), request -> box
   [1 + n_left + r] (cap 1, cost [edge_cost]), box -> sink (cap =
   upload slots).  The matching is read off the request -> box arcs. *)
let solve_min_cost t ~edge_cost =
  let nl = n_left t and nr = n_right t and right_cap = Csr.right_cap_array t.csr in
  let adj = adjacency t in
  let net = Min_cost_flow.create (2 + nl + nr) in
  let box r = 1 + nl + r and sink = 1 + nl + nr in
  for l = 0 to nl - 1 do
    ignore (Min_cost_flow.add_edge net ~src:0 ~dst:(1 + l) ~cap:1 ~cost:0)
  done;
  let middle =
    Array.mapi
      (fun l row ->
        Array.map
          (fun r ->
            Min_cost_flow.add_edge net ~src:(1 + l) ~dst:(box r) ~cap:1
              ~cost:(edge_cost ~left:l ~right:r))
          row)
      adj
  in
  for r = 0 to nr - 1 do
    ignore (Min_cost_flow.add_edge net ~src:(box r) ~dst:sink ~cap:right_cap.(r) ~cost:0)
  done;
  let _value, _cost = Min_cost_flow.solve net ~src:0 ~sink in
  let assignment = Array.make nl (-1) in
  let right_load = Array.make nr 0 in
  let matched = ref 0 in
  Array.iteri
    (fun l arcs ->
      Array.iteri
        (fun i a ->
          if Min_cost_flow.flow net a > 0 then begin
            let r = adj.(l).(i) in
            assignment.(l) <- r;
            right_load.(r) <- right_load.(r) + 1;
            incr matched
          end)
        arcs)
    middle;
  { matched = !matched; assignment; right_load }

let solve_greedy ?(until_stable = false) ?warm_start ~rounds g t =
  let adj = adjacency t in
  let right_cap = Csr.right_cap_array t.csr in
  let assignment = Array.make (n_left t) (-1) in
  let right_load = Array.make (n_right t) 0 in
  let matched = ref 0 in
  (* persistent connections: re-seat requests on their previous server
     when it is still adjacent and has capacity *)
  (match warm_start with
  | None -> ()
  | Some ws ->
      if Array.length ws <> n_left t then
        invalid_arg "Bipartite.solve_greedy: warm_start length mismatch";
      Array.iteri
        (fun l r ->
          if
            r >= 0 && r < n_right t
            && right_load.(r) < right_cap.(r)
            && Array.mem r adj.(l)
          then begin
            assignment.(l) <- r;
            right_load.(r) <- right_load.(r) + 1;
            incr matched
          end)
        ws);
  let progress = ref true in
  let round = ref 0 in
  while (if until_stable then !progress else !round < rounds) && !matched < n_left t do
    incr round;
    if until_stable && !round > rounds * 1000 then progress := false
    else begin
      progress := false;
      (* 1. proposals: every unmatched request picks one candidate with
         spare capacity, uniformly at random *)
      let proposals = Array.init (max (n_right t) 1) (fun _ -> Vec.create ()) in
      for l = 0 to n_left t - 1 do
        if assignment.(l) = -1 then begin
          let open_candidates =
            Array.to_list adj.(l)
            |> List.filter (fun r -> right_load.(r) < right_cap.(r))
          in
          match open_candidates with
          | [] -> ()
          | candidates ->
              let arr = Array.of_list candidates in
              Vec.push proposals.(arr.(Vod_util.Prng.int g (Array.length arr))) l
        end
      done;
      (* 2. acceptance: each box takes a random subset up to capacity *)
      for r = 0 to n_right t - 1 do
        let incoming = Vec.to_array proposals.(r) in
        if Array.length incoming > 0 then begin
          Vod_util.Sample.shuffle g incoming;
          let accept = min (Array.length incoming) (right_cap.(r) - right_load.(r)) in
          for i = 0 to accept - 1 do
            assignment.(incoming.(i)) <- r;
            right_load.(r) <- right_load.(r) + 1;
            incr matched;
            progress := true
          done
        end
      done
    end
  done;
  { matched = !matched; assignment; right_load }

let is_feasible t = (solve t).matched = n_left t

type violator = { requests : int list; servers : int list; server_slots : int }

(* König's construction.  Under a maximum matching, the requests and
   boxes reachable from the unmatched requests along alternating paths
   (request -> every adjacent box -> the requests seated on it) are the
   source side of the minimal minimum cut of Lemma 1's network with
   unbounded request -> box arcs, the same for every maximum flow.  The
   BFS runs in arena scratch: per box a linked list of its seated
   requests ([seat_start] heads, [seats] links), the worklist [queue]
   and the reached boxes [visited_right]; a matched request is enqueued
   when its one box is reached, so requests need no visited set.
   [false] as soon as a reached box has a free seat: the matching is
   then not maximum (Berge). *)
let alternating_reach arena csr assignment =
  let nl = Csr.n_left csr and nr = Csr.n_right csr in
  let row_start = Csr.row_start csr and col = Csr.col csr in
  let cap = Csr.right_cap_array csr in
  let first = Arena.ints arena.Arena.seat_start (max nr 1) in
  let next = Arena.ints arena.Arena.seats (max nl 1) in
  let queue = Arena.ints arena.Arena.queue (max nl 1) in
  let reached = Arena.bits arena.Arena.visited_right nr in
  Array.fill first 0 nr (-1);
  Bitset.clear reached;
  let head = ref 0 and tail = ref 0 and maximum = ref true in
  let push l =
    queue.(!tail) <- l;
    incr tail
  in
  for l = 0 to nl - 1 do
    let r = assignment.(l) in
    if r < 0 then push l
    else begin
      next.(l) <- first.(r);
      first.(r) <- l
    end
  done;
  while !maximum && !head < !tail do
    let l = queue.(!head) in
    incr head;
    for i = row_start.(l) to row_start.(l + 1) - 1 do
      let r = col.(i) in
      if not (Bitset.unsafe_mem reached r) then begin
        Bitset.unsafe_add reached r;
        let seated = ref first.(r) and load = ref 0 in
        while !seated >= 0 do
          push !seated;
          incr load;
          seated := next.(!seated)
        done;
        if !load < cap.(r) then maximum := false
      end
    done
  done;
  !maximum

let hall_violator ?arena ?matching t =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let csr = csr t in
  let nl = Csr.n_left csr in
  let is_maximum (o : outcome) =
    if Array.length o.assignment <> nl then
      invalid_arg "Bipartite.hall_violator: matching length mismatch";
    alternating_reach arena csr o.assignment
  in
  let assignment =
    match matching with
    | Some o when is_maximum o -> o.assignment
    | Some _ | None ->
        (* no matching, or one that is not maximum: solve afresh *)
        let (_ : int) = Hopcroft_karp.solve_csr ~arena csr in
        let a = Arena.assignment arena in
        let maximum = alternating_reach arena csr a in
        assert maximum;
        a
  in
  (* X: the unmatched requests and those seated on a reached box *)
  let reached = arena.Arena.visited_right.Arena.bits in
  let requests = ref [] and servers = ref [] and slots = ref 0 in
  for l = nl - 1 downto 0 do
    let r = assignment.(l) in
    if r < 0 || Bitset.mem reached r then requests := l :: !requests
  done;
  for r = Csr.n_right csr - 1 downto 0 do
    if Bitset.unsafe_mem reached r then begin
      servers := r :: !servers;
      slots := !slots + (Csr.right_cap_array csr).(r)
    end
  done;
  if !requests = [] then None
  else Some { requests = !requests; servers = !servers; server_slots = !slots }
