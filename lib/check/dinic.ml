module F = Flow_network

(* Assigns BFS levels over the residual graph; returns true when the sink
   is reachable. *)
let bfs_net net ~src ~sink level =
  Array.fill level 0 (Array.length level) (-1);
  level.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    F.iter_arcs_from net v (fun a ->
        let w = F.arc_dst net a in
        if F.residual net a > 0 && level.(w) < 0 then begin
          level.(w) <- level.(v) + 1;
          Queue.add w queue
        end)
  done;
  level.(sink) >= 0

let max_flow ?(limit = max_int) net ~src ~sink =
  let n = F.node_count net in
  if src < 0 || src >= n || sink < 0 || sink >= n then
    invalid_arg "Dinic.max_flow: endpoint out of range";
  if src = sink then invalid_arg "Dinic.max_flow: src = sink";
  let level = Array.make n (-1) in
  (* Current-arc pointers: the next adjacency index to try per node.  We
     materialise each node's arc list once for O(1) advancing. *)
  let adjacency = Array.make n [||] in
  for v = 0 to n - 1 do
    let arcs = ref [] in
    F.iter_arcs_from net v (fun a -> arcs := a :: !arcs);
    adjacency.(v) <- Array.of_list !arcs
  done;
  let it = Array.make n 0 in
  let total = ref 0 in
  (* Depth-first blocking-flow augmentation in the level graph. *)
  let rec dfs v pushed =
    if v = sink then pushed
    else begin
      let result = ref 0 in
      let arcs = adjacency.(v) in
      while !result = 0 && it.(v) < Array.length arcs do
        let a = arcs.(it.(v)) in
        let w = F.arc_dst net a in
        let r = F.residual net a in
        if r > 0 && level.(w) = level.(v) + 1 then begin
          let got = dfs w (min pushed r) in
          if got > 0 then begin
            F.push net a got;
            result := got
          end
          else it.(v) <- it.(v) + 1
        end
        else it.(v) <- it.(v) + 1
      done;
      !result
    end
  in
  (try
     while !total < limit && bfs_net net ~src ~sink level do
       Array.fill it 0 n 0;
       let continue = ref true in
       while !continue do
         let pushed = dfs src (limit - !total) in
         if pushed = 0 then continue := false
         else begin
           total := !total + pushed;
           if !total >= limit then raise Exit
         end
       done
     done
   with Exit -> ());
  !total
