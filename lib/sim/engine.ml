open Vod_util
open Vod_model

(* Observability hooks (registered once; O(1) per event recorded). *)
let obs_rounds = Vod_obs.Registry.counter Vod_obs.Registry.default "engine.rounds"
let obs_demands = Vod_obs.Registry.counter Vod_obs.Registry.default "engine.demands"
let obs_unserved = Vod_obs.Registry.counter Vod_obs.Registry.default "engine.unserved"
let obs_active = Vod_obs.Registry.gauge Vod_obs.Registry.default "engine.active_requests"

let obs_link_failures =
  Vod_obs.Registry.counter Vod_obs.Registry.default "fault.link_failures"

let obs_repair_served =
  Vod_obs.Registry.counter Vod_obs.Registry.default "repair.slot_rounds_served"

let obs_delta_builds =
  Vod_obs.Registry.counter Vod_obs.Registry.default "engine.delta_builds"

let obs_delta_rows =
  Vod_obs.Registry.counter Vod_obs.Registry.default "engine.delta_rows"

let obs_delta_fallbacks =
  Vod_obs.Registry.counter Vod_obs.Registry.default "engine.delta_fallbacks"

type kind = Preload | Postponed | Relayed_preload | Relayed_postponed | Repair_transfer

type request = {
  stripe : int;
  owner : int;
  requester : int;
  issued_at : int;
  kind : kind;
  target : int; (* rounds of service needed to complete (T for user requests) *)
  mutable progress : int;
  mutable last_server : int; (* box that served the previous round, -1 *)
}

type failure_policy = Fail_fast | Continue

type scheduler =
  | Arbitrary
  | Prefer_cache
  | Sticky
  | Greedy_proposals of int
  | Prefer_local
  | Balance_load

type round_report = {
  time : int;
  new_demands : int;
  active_requests : int;
  served : int;
  unserved : int;
  served_from_cache : int;
  rewired : int;
  cross_group : int;
  busy_boxes : int;
  offline_boxes : int;
  faulted : int;
  repair_active : int;
  repair_served : int;
}

exception Defeated of round_report

type t = {
  params : Params.t;
  fleet : Box.t array;
  mutable alloc : Allocation.t;
  compensation : Vod_analysis.Theorem2.compensation option;
  policy : failure_policy;
  preloading : bool;
  scheduler : scheduler;
  topology : Topology.t option;
  online : bool array;
  helper : bool array; (* spare-upload boxes that never take demands *)
  last_loads : int array; (* per box: slots used last round *)
  cumulative_loads : int array; (* stripe-rounds served per box, ever *)
  capacity : int array; (* matching upload slots per box, net of reservations *)
  upload_factor : float array; (* per-box degradation factor in [0, 1] *)
  mutable link_faults : (time:int -> owner:int -> server:int -> bool) option;
  completed_repairs : (int * int) Vec.t; (* (stripe, dest), completion order *)
  mutable now : int;
  active : request Vec.t;
  scheduled : (int, request Vec.t) Hashtbl.t; (* activation time -> requests *)
  recent : (int, request Vec.t) Hashtbl.t; (* stripe -> recent requests, in issue order *)
  busy_until : int array;
  stripe_counter : int array; (* per video: preload round-robin *)
  swarm : int Vec.t array; (* per video: entry times, ordered *)
  pending : (int * int) Vec.t; (* (box, video) demands for the next step *)
  mutable last_violator : Vod_graph.Bipartite.violator option;
  mutable last_instance : Vod_graph.Bipartite.t option;
  inst : Vod_graph.Bipartite.t;
      (* the one matching instance, rebuilt in place every round *)
  arena : Vod_graph.Arena.t; (* solver scratch, allocated once per engine *)
  right_cap_scratch : int array; (* per-round online-masked capacities *)
  (* delta-CSR build tracking: which rows of the next round's instance
     can be blitted from the current one *)
  mutable prev_requests : request array; (* rows of the last built instance *)
  touched : (int, unit) Hashtbl.t; (* stripes dirtied since the last build *)
  mutable all_dirty : bool; (* global invalidation (online/alloc change) *)
  frozen_until : (int, int) Hashtbl.t;
      (* stripe -> last round its frozen mid-flight cache entries stay
         in the window; rows of the stripe are dirty until then *)
  mutable src_buf : int array; (* per-row source index for delta builds *)
  sched_rng : Vod_util.Prng.t; (* randomness for the decentralised scheduler *)
  demand_round : int array; (* per box: round of its current demand's first request *)
  awaiting_first : int array; (* per box: stripes of the current demand not yet streaming *)
  startups : int Vec.t; (* realised start-up delays, in rounds *)
  mutable round_sink : (round_report -> unit) option;
      (* per-round telemetry flush hook; observation only, sees every
         report (including a Fail_fast defeat's) before [step] returns *)
}

(* Matching upload slots of box [b]: its nominal upload, scaled by the
   current degradation factor, net of any static relay reservation. *)
let compute_capacity ~params ~fleet ~compensation ~factor b =
  let reserved =
    match compensation with
    | Some comp -> comp.Vod_analysis.Theorem2.reserved.(b)
    | None -> 0.0
  in
  max 0
    (Params.upload_slots params
       (Float.max 0.0 ((fleet.(b).Box.upload *. factor) -. reserved)))

let create ~params ~fleet ~alloc ?compensation ?(policy = Fail_fast)
    ?(preloading = true) ?(scheduler = Arbitrary) ?topology () =
  let n = params.Params.n in
  (match (scheduler, topology) with
  | Prefer_local, None ->
      invalid_arg "Engine.create: Prefer_local requires a topology"
  | _, Some topo ->
      if Topology.n topo <> n then invalid_arg "Engine.create: topology size <> n"
  | _, None -> ());
  if Array.length fleet <> n then invalid_arg "Engine.create: fleet size <> params.n";
  if Allocation.n_boxes alloc <> n then invalid_arg "Engine.create: allocation box count";
  if Catalog.stripes_per_video (Allocation.catalog alloc) <> params.Params.c then
    invalid_arg "Engine.create: allocation stripe count <> params.c";
  let capacity =
    Array.init n (compute_capacity ~params ~fleet ~compensation ~factor:1.0)
  in
  let m = Catalog.videos (Allocation.catalog alloc) in
  {
    params;
    fleet;
    alloc;
    compensation;
    policy;
    preloading;
    scheduler;
    topology;
    online = Array.make n true;
    helper = Array.make n false;
    last_loads = Array.make n 0;
    cumulative_loads = Array.make n 0;
    capacity;
    upload_factor = Array.make n 1.0;
    link_faults = None;
    completed_repairs = Vec.create ();
    now = 0;
    active = Vec.create ();
    scheduled = Hashtbl.create 64;
    recent = Hashtbl.create 256;
    busy_until = Array.make n 0;
    stripe_counter = Array.make (max m 1) 0;
    swarm = Array.init (max m 1) (fun _ -> Vec.create ());
    pending = Vec.create ();
    sched_rng = Vod_util.Prng.create ~seed:0x7ea ();
    last_violator = None;
    last_instance = None;
    inst = Vod_graph.Bipartite.create ~n_left:0 ~n_right:n ~right_cap:(Array.make n 0);
    arena = Vod_graph.Arena.create ();
    right_cap_scratch = Array.make n 0;
    prev_requests = [||];
    touched = Hashtbl.create 64;
    all_dirty = true;
    frozen_until = Hashtbl.create 16;
    src_buf = [||];
    demand_round = Array.make n 0;
    awaiting_first = Array.make n 0;
    startups = Vec.create ();
    round_sink = None;
  }

let params t = t.params
let fleet t = t.fleet
let alloc t = t.alloc
let now t = t.now
let is_online t b = t.online.(b)

let set_helper t b flag =
  if b < 0 || b >= t.params.Params.n then invalid_arg "Engine.set_helper: box out of range";
  t.helper.(b) <- flag

let is_helper t b =
  if b < 0 || b >= t.params.Params.n then invalid_arg "Engine.is_helper: box out of range";
  t.helper.(b)
let last_loads t = Array.copy t.last_loads
let cumulative_loads t = Array.copy t.cumulative_loads
let is_idle t b =
  t.online.(b)
  && t.busy_until.(b) <= t.now
  && not (Vec.exists (fun (pb, _) -> pb = b) t.pending)

(* Helpers are excluded: they are upload-only boxes, so no generator
   should ever draft them as viewers. *)
let idle_boxes t =
  let acc = ref [] in
  for b = t.params.Params.n - 1 downto 0 do
    if is_idle t b && not t.helper.(b) then acc := b :: !acc
  done;
  !acc

let window_start t = t.now - t.params.Params.duration

(* Delta-build bookkeeping.  A cancelled or offline-dropped in-flight
   request stays in [recent] with its progress frozen; the
   relative-progress relations against the rows that keep advancing
   shift every round it remains in the window, so rows of its stripe
   cannot be blitted until the entry expires. *)
let freeze_stripe t req =
  if req.kind <> Repair_transfer then begin
    let until = req.issued_at + t.params.Params.duration in
    let cur =
      match Hashtbl.find_opt t.frozen_until req.stripe with
      | Some u -> u
      | None -> min_int
    in
    if until > cur then Hashtbl.replace t.frozen_until req.stripe until
  end

let stripe_frozen t stripe ~time =
  match Hashtbl.find_opt t.frozen_until stripe with
  | None -> false
  | Some until ->
      if time <= until then true
      else begin
        Hashtbl.remove t.frozen_until stripe;
        false
      end

let swarm_size t v =
  let entries = t.swarm.(v) in
  let lo = window_start t in
  (* entries are appended in time order: count the suffix within the
     window (old entries are lazily dropped by rebuilding). *)
  let count = ref 0 in
  Vec.iter (fun e -> if e >= lo then incr count) entries;
  !count

let active_request_count t = Vec.length t.active
let upload_slots_of_box t b = t.capacity.(b)

let set_alloc t alloc =
  let cat = Allocation.catalog alloc and cat0 = Allocation.catalog t.alloc in
  if Allocation.n_boxes alloc <> t.params.Params.n then
    invalid_arg "Engine.set_alloc: allocation box count";
  if
    Catalog.stripes_per_video cat <> Catalog.stripes_per_video cat0
    || Catalog.videos cat <> Catalog.videos cat0
  then invalid_arg "Engine.set_alloc: catalog shape changed";
  t.alloc <- alloc;
  t.all_dirty <- true

let set_upload_factor t ~box ~factor =
  if box < 0 || box >= t.params.Params.n then
    invalid_arg "Engine.set_upload_factor: box out of range";
  if not (Float.is_finite factor) || factor < 0.0 || factor > 1.0 then
    invalid_arg "Engine.set_upload_factor: factor outside [0, 1]";
  t.upload_factor.(box) <- factor;
  t.capacity.(box) <-
    compute_capacity ~params:t.params ~fleet:t.fleet ~compensation:t.compensation
      ~factor box

let upload_factor t box =
  if box < 0 || box >= t.params.Params.n then
    invalid_arg "Engine.upload_factor: box out of range";
  t.upload_factor.(box)

let set_link_faults t f = t.link_faults <- f

let relay_of t b =
  match t.compensation with
  | None -> None
  | Some comp ->
      let r = comp.Vod_analysis.Theorem2.relay_of.(b) in
      if r >= 0 then Some r else None

let demand t ~box ~video =
  let m = Catalog.videos (Allocation.catalog t.alloc) in
  if box < 0 || box >= t.params.Params.n then invalid_arg "Engine.demand: box out of range";
  if video < 0 || video >= m then invalid_arg "Engine.demand: video out of range";
  if t.helper.(box) then invalid_arg "Engine.demand: box is a helper (takes no demands)";
  if not (is_idle t box) then invalid_arg "Engine.demand: box is busy";
  Vec.push t.pending (box, video)

type reject_reason = Offline | Helper | Out_of_range
type admit = Admitted | Queued | Rejected of reject_reason

let try_demand t ~box ~video =
  let m = Catalog.videos (Allocation.catalog t.alloc) in
  if box < 0 || box >= t.params.Params.n || video < 0 || video >= m then
    Rejected Out_of_range
  else if t.helper.(box) then Rejected Helper
  else if not t.online.(box) then Rejected Offline
  else if not (is_idle t box) then Queued
  else begin
    Vec.push t.pending (box, video);
    Admitted
  end

let awaiting_first t box =
  if box < 0 || box >= t.params.Params.n then
    invalid_arg "Engine.awaiting_first: box out of range";
  t.awaiting_first.(box)

let schedule t time req =
  let bucket =
    match Hashtbl.find_opt t.scheduled time with
    | Some v -> v
    | None ->
        let v = Vec.create () in
        Hashtbl.add t.scheduled time v;
        v
  in
  Vec.push bucket req

(* Translate one user demand into its request schedule.  [time] is the
   round at which the preloading request is issued. *)
let emit_requests t ~box ~video ~time =
  let c = t.params.Params.c in
  let cat = Allocation.catalog t.alloc in
  let preload_index = t.stripe_counter.(video) mod c in
  t.stripe_counter.(video) <- t.stripe_counter.(video) + 1;
  let stripe i = Catalog.stripe_id cat ~video ~index:i in
  let make ~kind ~requester ~index ~at =
    schedule t at
      {
        stripe = stripe index;
        owner = box;
        requester;
        issued_at = at;
        kind;
        target = t.params.Params.duration;
        progress = 0;
        last_server = -1;
      }
  in
  Vec.push t.swarm.(video) time;
  t.demand_round.(box) <- time;
  t.awaiting_first.(box) <- c;
  match relay_of t box with
  | None ->
      if t.preloading then begin
        make ~kind:Preload ~requester:box ~index:preload_index ~at:time;
        for j = 1 to c - 1 do
          make ~kind:Postponed ~requester:box ~index:((preload_index + j) mod c)
            ~at:(time + 1)
        done
      end
      else
        (* ablation: naive strategy, all stripes at once *)
        for j = 0 to c - 1 do
          make ~kind:Postponed ~requester:box ~index:j ~at:time
        done;
      t.busy_until.(box) <- time + t.params.Params.duration + 2
  | Some relay ->
      (* Theorem 2 strategy: preload via the relay at t, [cb] direct
         requests at t+2, the rest via the relay at t+3. *)
      let mu4 = t.params.Params.mu ** 4.0 in
      let ub = t.fleet.(box).Box.upload in
      let cb =
        max 0
          (min (c - 1)
             (int_of_float (floor ((float_of_int c *. ub) -. (4.0 *. mu4)))))
      in
      make ~kind:Relayed_preload ~requester:relay ~index:preload_index ~at:time;
      for j = 1 to cb do
        make ~kind:Postponed ~requester:box ~index:((preload_index + j) mod c)
          ~at:(time + 2)
      done;
      for j = cb + 1 to c - 1 do
        make ~kind:Relayed_postponed ~requester:relay ~index:((preload_index + j) mod c)
          ~at:(time + 3)
      done;
      t.busy_until.(box) <- time + t.params.Params.duration + 4

(* Boxes that cache data of a request: the owner always; the relay too
   when it forwarded the stripe (Section 4: r(b) caches what it
   relays). *)
let cachers req =
  match req.kind with
  | Preload | Postponed | Repair_transfer -> [ req.owner ]
  | Relayed_preload | Relayed_postponed ->
      if req.requester = req.owner then [ req.owner ] else [ req.owner; req.requester ]

(* ------------------------------------------------------------------ *)
(* Repair transfers (vod_fault's maintenance controller)               *)
(* ------------------------------------------------------------------ *)

(* A repair transfer is a real request in the connection matching: it
   competes for donor upload slots like any stripe request, but it does
   not make its destination busy, enter the playback-cache window or
   touch the swarm/start-up accounting — it is background maintenance
   traffic, not a viewer. *)
let inject_repair t ~stripe ~dest ~rounds =
  let total = Catalog.total_stripes (Allocation.catalog t.alloc) in
  if stripe < 0 || stripe >= total then
    invalid_arg "Engine.inject_repair: stripe out of range";
  if dest < 0 || dest >= t.params.Params.n then
    invalid_arg "Engine.inject_repair: dest out of range";
  if not t.online.(dest) then invalid_arg "Engine.inject_repair: dest is offline";
  if rounds < 1 then invalid_arg "Engine.inject_repair: rounds < 1";
  let at = t.now + 1 in
  schedule t at
    {
      stripe;
      owner = dest;
      requester = dest;
      issued_at = at;
      kind = Repair_transfer;
      target = rounds;
      progress = 0;
      last_server = -1;
    }

let abort_repair t ~stripe ~dest =
  let removed = ref false in
  let filter vec =
    let keep =
      Vec.to_list vec
      |> List.filter (fun r ->
             let doomed =
               r.kind = Repair_transfer && r.stripe = stripe && r.owner = dest
             in
             if doomed then removed := true;
             not doomed)
    in
    Vec.clear vec;
    List.iter (Vec.push vec) keep
  in
  filter t.active;
  Hashtbl.iter (fun _ batch -> filter batch) t.scheduled;
  !removed

let drain_completed_repairs t =
  let l = Vec.to_list t.completed_repairs in
  Vec.clear t.completed_repairs;
  l

(* Completed transfers linger in [active] until the next step's retire
   phase; they are no longer in flight, so they are not counted. *)
let repair_in_flight t =
  let count = ref 0 in
  let tally vec =
    Vec.iter
      (fun r -> if r.kind = Repair_transfer && r.progress < r.target then incr count)
      vec
  in
  tally t.active;
  Hashtbl.iter (fun _ batch -> tally batch) t.scheduled;
  !count

let prune_recent t =
  let lo = window_start t in
  Hashtbl.iter
    (fun stripe entries ->
      if Vec.length entries > 0 && (Vec.get entries 0).issued_at < lo then begin
        let kept = Vec.to_list entries |> List.filter (fun r -> r.issued_at >= lo) in
        Vec.clear entries;
        List.iter (Vec.push entries) kept;
        (* a cache entry left the window: the stripe's rows lost edges *)
        Hashtbl.replace t.touched stripe ()
      end)
    t.recent;
  (* occasionally rebuild swarm vectors to stay compact *)
  Array.iter
    (fun entries ->
      if Vec.length entries > 64 && Vec.get entries 0 < lo then begin
        let kept = Vec.to_list entries |> List.filter (fun e -> e >= lo) in
        Vec.clear entries;
        List.iter (Vec.push entries) kept
      end)
    t.swarm

let recent_for t stripe =
  match Hashtbl.find_opt t.recent stripe with
  | Some v -> v
  | None ->
      let v = Vec.create () in
      Hashtbl.add t.recent stripe v;
      v

(* Per-video request statistics for checking Lemma 2 on live traces:
   for the set X of active requests of each video, the size i = |X|,
   the number i1 of distinct stripes requested, and |B(X)|, the number
   of online boxes possessing data some request needs. *)
let video_request_stats t =
  let c = t.params.Params.c in
  let by_video = Hashtbl.create 16 in
  Vec.iter
    (fun req ->
      if req.kind = Repair_transfer then ()
      else
      let video = req.stripe / c in
      let entry =
        match Hashtbl.find_opt by_video video with
        | Some e -> e
        | None ->
            let e = (ref 0, Hashtbl.create 8, Bitset.create t.params.Params.n) in
            Hashtbl.add by_video video e;
            e
      in
      let count, stripes, servers = entry in
      incr count;
      Hashtbl.replace stripes req.stripe ();
      Array.iter
        (fun b -> if t.online.(b) then Bitset.add servers b)
        (Allocation.boxes_of_stripe t.alloc req.stripe);
      Vec.iter
        (fun candidate ->
          if candidate.issued_at < req.issued_at && candidate.progress > req.progress
          then
            List.iter
              (fun b -> if t.online.(b) then Bitset.add servers b)
              (cachers candidate))
        (recent_for t req.stripe))
    t.active;
  Hashtbl.fold
    (fun video (count, stripes, servers) acc ->
      (video, !count, Hashtbl.length stripes, Bitset.cardinal servers) :: acc)
    by_video []

let last_violator t = t.last_violator
let last_instance t = t.last_instance

let startup_delays t = Vec.to_array t.startups
let startup_count t = Vec.length t.startups
let startup_delay t i = Vec.get t.startups i
let set_round_sink t sink = t.round_sink <- sink

(* The user stops watching: drop the box's in-flight and scheduled
   requests and free it immediately.  Its playback cache entries remain
   in [recent] and keep serving the swarm for the rest of the window,
   exactly as a real departure mid-video would. *)
let cancel t box =
  if box < 0 || box >= t.params.Params.n then invalid_arg "Engine.cancel: box out of range";
  (* the viewer leaves, but any repair transfer towards the box is
     maintenance traffic and survives the cancellation *)
  let keeps r = r.owner <> box || r.kind = Repair_transfer in
  let keep =
    Vec.to_list t.active
    |> List.filter (fun r ->
           let k = keeps r in
           if not k then freeze_stripe t r;
           k)
  in
  Vec.clear t.active;
  List.iter (Vec.push t.active) keep;
  Hashtbl.iter
    (fun _ batch ->
      let keep = Vec.to_list batch |> List.filter keeps in
      Vec.clear batch;
      List.iter (Vec.push batch) keep)
    t.scheduled;
  t.busy_until.(box) <- t.now;
  t.awaiting_first.(box) <- 0

let set_online t box online =
  if box < 0 || box >= t.params.Params.n then
    invalid_arg "Engine.set_online: box out of range";
  if t.online.(box) <> online then t.all_dirty <- true;
  if t.online.(box) && not online then begin
    (* the viewer disappears: drop its in-flight and scheduled requests
       (its static replicas become unavailable through the matching
       capacity; its cache entries are filtered out while offline) *)
    let keep =
      Vec.to_list t.active
      |> List.filter (fun r ->
             let k = r.owner <> box in
             if not k then freeze_stripe t r;
             k)
    in
    Vec.clear t.active;
    List.iter (Vec.push t.active) keep;
    Hashtbl.iter
      (fun _ batch ->
        let keep = Vec.to_list batch |> List.filter (fun r -> r.owner <> box) in
        Vec.clear batch;
        List.iter (Vec.push batch) keep)
      t.scheduled;
    (* demands registered but not yet turned into requests die with the
       box too, so stateless generators compose with churn plans *)
    let keep = Vec.to_list t.pending |> List.filter (fun (pb, _) -> pb <> box) in
    Vec.clear t.pending;
    List.iter (Vec.push t.pending) keep;
    t.busy_until.(box) <- t.now
  end;
  t.online.(box) <- online

let step t =
  Vod_obs.Span.with_ ~name:"round" @@ fun () ->
  let time = t.now + 1 in
  t.now <- time;
  Vod_obs.Registry.incr obs_rounds;
  let new_demands =
    Vod_obs.Span.with_ ~name:"demand-admit" @@ fun () ->
    (* 1. Turn pending user demands into scheduled requests.  Demands
       whose box went offline since registration are skipped silently,
       like demands on busy boxes, so stateless generators compose with
       churn plans. *)
    let new_demands = ref 0 in
    Vec.iter
      (fun (box, video) ->
        if t.online.(box) then begin
          incr new_demands;
          emit_requests t ~box ~video ~time
        end)
      t.pending;
    Vec.clear t.pending;
    let new_demands = !new_demands in
    (* 2. Activate requests scheduled for this round.  Repair transfers
       stay out of the playback-cache window: a partially copied replica
       is not cache content other viewers may stream from. *)
    (match Hashtbl.find_opt t.scheduled time with
    | None -> ()
    | Some batch ->
        Vec.iter
          (fun req ->
            Vec.push t.active req;
            if req.kind <> Repair_transfer then
              Vec.push (recent_for t req.stripe) req)
          batch;
        Hashtbl.remove t.scheduled time);
    (* 3. Retire completed requests and prune stale cache entries. *)
    let still_active =
      Vec.to_list t.active |> List.filter (fun r -> r.progress < r.target)
    in
    Vec.clear t.active;
    List.iter (Vec.push t.active) still_active;
    prune_recent t;
    new_demands
  in
  Vod_obs.Registry.add obs_demands new_demands;
  (* 4. Build the connection-matching instance (Section 2.2). *)
  let requests, instance =
    Vod_obs.Span.with_ ~name:"build" @@ fun () ->
    let requests = Vec.to_array t.active in
    let n_left = Array.length requests in
    let n = t.params.Params.n in
    for b = 0 to n - 1 do
      t.right_cap_scratch.(b) <- (if t.online.(b) then t.capacity.(b) else 0)
    done;
    (* refill the persistent instance in place: once its buffers reach
       the run's high-water mark, the whole build phase stops
       allocating *)
    let instance = t.inst in
    (* one row's edges, identical on the scratch and delta paths: the
       static replicas plus the cache window, filtered by [usable] (a
       repair transfer must copy from a peer: the destination box never
       serves itself) *)
    let emit_row req emit =
      let usable b = t.online.(b) && (req.kind <> Repair_transfer || b <> req.owner) in
      Array.iter
        (fun b -> if usable b then emit b)
        (Allocation.boxes_of_stripe t.alloc req.stripe);
      Vec.iter
        (fun candidate ->
          if candidate.issued_at < req.issued_at && candidate.progress > req.progress
          then List.iter (fun b -> if usable b then emit b) (cachers candidate))
        (recent_for t req.stripe)
    in
    let scratch_build () =
      Vod_graph.Bipartite.reset instance ~n_left ~n_right:n
        ~right_cap:t.right_cap_scratch;
      Array.iteri
        (fun l req ->
          emit_row req (fun b -> Vod_graph.Bipartite.add_edge instance ~left:l ~right:b))
        requests
    in
    if t.all_dirty then scratch_build ()
    else begin
      (* map each surviving row to its row in the previous instance.
         Activation appends and every filter preserves order, so the
         survivors keep their relative order and a single two-pointer
         scan (on physical request identity) recovers the mapping; a
         request activated this round is new by construction. *)
      let prev = t.prev_requests in
      let n_prev = Array.length prev in
      let src =
        if Array.length t.src_buf >= n_left then t.src_buf
        else Array.make (max (2 * n_left) 64) 0
      in
      t.src_buf <- src;
      let dirty = ref 0 in
      let p = ref 0 in
      for l = 0 to n_left - 1 do
        let req = requests.(l) in
        let s =
          if req.issued_at = time then -1
          else begin
            while !p < n_prev && not (prev.(!p) == req) do
              incr p
            done;
            if !p >= n_prev then -1
            else begin
              let s = !p in
              incr p;
              (* a repair row's own progress relation against the cache
                 window shifts every round, so it is never blitted *)
              if
                req.kind = Repair_transfer
                || Hashtbl.mem t.touched req.stripe
                || stripe_frozen t req.stripe ~time
              then -1
              else s
            end
          end
        in
        src.(l) <- s;
        if s < 0 then incr dirty
      done;
      if 2 * !dirty > n_left then begin
        Vod_obs.Registry.incr obs_delta_fallbacks;
        scratch_build ()
      end
      else begin
        Vod_obs.Registry.incr obs_delta_builds;
        Vod_obs.Registry.add obs_delta_rows !dirty;
        Vod_graph.Bipartite.delta_rebuild instance ~n_left
          ~right_cap:t.right_cap_scratch
          ~src_of:(fun l -> src.(l))
          ~fill:(fun l emit -> emit_row requests.(l) emit)
      end
    end;
    t.prev_requests <- requests;
    Hashtbl.reset t.touched;
    t.all_dirty <- false;
    t.last_instance <- Some instance;
    (requests, instance)
  in
  let n_left = Array.length requests in
  let n = t.params.Params.n in
  Vod_obs.Registry.set obs_active n_left;
  let outcome =
    Vod_obs.Span.with_ ~name:"matching" @@ fun () ->
    match t.scheduler with
    | Arbitrary -> Vod_graph.Bipartite.solve ~arena:t.arena instance
    | Prefer_cache ->
        (* serving from a static replica costs 1, from a cache 0: among
           maximum matchings, minimise the load on the allocation *)
        let cost ~left ~right =
          if Allocation.possesses t.alloc ~box:right ~stripe:requests.(left).stripe
          then 1
          else 0
        in
        Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost
    | Sticky ->
        (* keeping last round's connection costs 0, rewiring costs 1:
           among maximum matchings, minimise connection churn *)
        let cost ~left ~right = if requests.(left).last_server = right then 0 else 1 in
        Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost
    | Greedy_proposals rounds ->
        (* no global view: persistent connections carry over, then boxes
           negotiate locally for a few rounds for the rest *)
        let warm_start = Array.map (fun req -> req.last_server) requests in
        Vod_graph.Bipartite.solve_greedy ~warm_start ~rounds t.sched_rng instance
    | Prefer_local ->
        (* among maximum matchings, minimise cross-group connections *)
        let topo = Option.get t.topology in
        let cost ~left ~right = Topology.cost topo requests.(left).owner right in
        Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost
    | Balance_load ->
        (* among maximum matchings, steer connections towards the boxes
           that have served the least so far *)
        let cost ~left:_ ~right = t.cumulative_loads.(right) in
        Vod_graph.Bipartite.solve_min_cost instance ~edge_cost:cost
  in
  let report =
    Vod_obs.Span.with_ ~name:"account" @@ fun () ->
    Array.blit outcome.Vod_graph.Bipartite.right_load 0 t.last_loads 0 n;
    Array.iteri
      (fun b load -> t.cumulative_loads.(b) <- t.cumulative_loads.(b) + load)
      outcome.Vod_graph.Bipartite.right_load;
    (* 5. Progress the served requests and account cache vs allocation.
       A matched connection may still be dropped by a transient link
       fault (the slot was consumed; the data never arrived): the
       request stalls exactly like an unmatched one. *)
    let served_from_cache = ref 0 and rewired = ref 0 and cross_group = ref 0 in
    let user_active = ref 0 and user_served = ref 0 in
    let repair_active = ref 0 and repair_served = ref 0 in
    let faulted = ref 0 in
    Array.iteri
      (fun l req ->
        let is_repair = req.kind = Repair_transfer in
        if is_repair then incr repair_active else incr user_active;
        let server = outcome.Vod_graph.Bipartite.assignment.(l) in
        if server >= 0 then begin
          let dropped =
            match t.link_faults with
            | Some fault -> fault ~time ~owner:req.owner ~server
            | None -> false
          in
          if dropped then begin
            incr faulted;
            Vod_obs.Registry.incr obs_link_failures;
            (* the stall desynchronises this request's progress from its
               stripe's cache window: those rows must be refilled *)
            Hashtbl.replace t.touched req.stripe ()
          end
          else begin
            if is_repair then incr repair_served else incr user_served;
            if not is_repair then begin
              (* the cache/rewiring/locality tallies describe viewer
                 connections; maintenance traffic stays out of them *)
              if not (Allocation.possesses t.alloc ~box:server ~stripe:req.stripe)
              then incr served_from_cache;
              if req.last_server >= 0 && req.last_server <> server then incr rewired;
              match t.topology with
              | Some topo ->
                  if not (Topology.same_group topo req.owner server) then
                    incr cross_group
              | None -> ()
            end;
            req.last_server <- server;
            if (not is_repair) && req.progress = 0 then begin
              (* first byte of this stripe: one fewer stream to wait for *)
              t.awaiting_first.(req.owner) <- t.awaiting_first.(req.owner) - 1;
              if t.awaiting_first.(req.owner) = 0 then
                Vec.push t.startups (time - t.demand_round.(req.owner))
            end;
            req.progress <- req.progress + 1;
            if is_repair && req.progress >= req.target then
              (* the replica copy is complete: hand it to the
                 maintenance controller at the next drain *)
              Vec.push t.completed_repairs (req.stripe, req.owner)
          end
        end
        else
          (* unmatched: the stall shifts this request's progress
             relative to every peer in its stripe's cache window *)
          Hashtbl.replace t.touched req.stripe ())
      requests;
    let unserved = !user_active - !user_served in
    Vod_obs.Registry.add obs_unserved unserved;
    Vod_obs.Registry.add obs_repair_served !repair_served;
    if outcome.Vod_graph.Bipartite.matched < n_left then
      t.last_violator <-
        Vod_graph.Bipartite.hall_violator ~arena:t.arena ~matching:outcome instance;
    let busy = ref 0 and offline = ref 0 in
    for b = 0 to n - 1 do
      if not (is_idle t b) then incr busy;
      if not t.online.(b) then incr offline
    done;
    {
      time;
      new_demands;
      active_requests = !user_active;
      served = !user_served;
      unserved;
      served_from_cache = !served_from_cache;
      rewired = !rewired;
      cross_group = !cross_group;
      busy_boxes = !busy;
      offline_boxes = !offline;
      faulted = !faulted;
      repair_active = !repair_active;
      repair_served = !repair_served;
    }
  in
  (match t.round_sink with None -> () | Some sink -> sink report);
  if report.unserved > 0 && t.policy = Fail_fast then raise (Defeated report);
  report

(* Single source of truth for the report's scalar fields: Trace.to_csv
   and pp_report derive their column order from this list, so adding a
   field here is the whole change. *)
let report_fields : (string * (round_report -> int)) list =
  [
    ("time", fun r -> r.time);
    ("new_demands", fun r -> r.new_demands);
    ("active_requests", fun r -> r.active_requests);
    ("served", fun r -> r.served);
    ("unserved", fun r -> r.unserved);
    ("served_from_cache", fun r -> r.served_from_cache);
    ("rewired", fun r -> r.rewired);
    ("cross_group", fun r -> r.cross_group);
    ("busy_boxes", fun r -> r.busy_boxes);
    ("offline_boxes", fun r -> r.offline_boxes);
    ("faulted", fun r -> r.faulted);
    ("repair_active", fun r -> r.repair_active);
    ("repair_served", fun r -> r.repair_served);
  ]

let pp_report fmt r =
  Format.fprintf fmt "{%s}"
    (String.concat "; "
       (List.map (fun (name, get) -> Printf.sprintf "%s=%d" name (get r)) report_fields))

let run t ~rounds ~demands_for =
  let reports = ref [] in
  for _ = 1 to rounds do
    let wanted = demands_for t (t.now + 1) in
    List.iter (fun (box, video) -> ignore (try_demand t ~box ~video : admit)) wanted;
    reports := step t :: !reports
  done;
  List.rev !reports
