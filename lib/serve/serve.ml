open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Scenario = Vod_fault.Scenario
module Chaos = Vod_fault.Chaos
module Mend = Vod_fault.Mend
module Session = Vod_proto.Session
module Generators = Vod_workload.Generators
module Registry = Vod_obs.Registry
module Slo = Vod_obs.Slo
module Telemetry = Vod_sim.Telemetry
module Json = Vod_json

let obs_arrivals = Registry.counter Registry.default "serve.arrivals"
let obs_admitted = Registry.counter Registry.default "serve.admitted"
let obs_completed = Registry.counter Registry.default "serve.completed"
let obs_shed = Registry.counter Registry.default "serve.shed"
let obs_rejected = Registry.counter Registry.default "serve.rejected"
let obs_retries = Registry.counter Registry.default "serve.retries"
let obs_interrupted = Registry.counter Registry.default "serve.interrupted"
let obs_expired = Registry.counter Registry.default "serve.expired"
let obs_degraded_rounds = Registry.counter Registry.default "serve.degraded_rounds"
let obs_stalled_rounds = Registry.counter Registry.default "serve.stalled_rounds"
let obs_queue_wait = Registry.histogram Registry.default "serve.queue_wait"

type shed_policy = Newest_first | Lowest_priority | Helper_first

let shed_policy_name = function
  | Newest_first -> "newest-first"
  | Lowest_priority -> "lowest-priority"
  | Helper_first -> "helper-first"

let shed_policy_of_name = function
  | "newest-first" -> Ok Newest_first
  | "lowest-priority" -> Ok Lowest_priority
  | "helper-first" -> Ok Helper_first
  | name -> Error (Printf.sprintf "unknown shed policy '%s'" name)

type config = {
  queue_cap : int;
  tokens_per_round : int option;
  token_burst : int option;
  headroom_margin : float;
  startup_deadline : int;
  queue_patience : int;
  retry_budget : int;
  backoff_base : int;
  backoff_cap : int;
  shed_policy : shed_policy;
}

let default_config =
  {
    queue_cap = 256;
    tokens_per_round = None;
    token_burst = None;
    headroom_margin = 0.1;
    startup_deadline = 8;
    queue_patience = 12;
    retry_budget = 3;
    backoff_base = 2;
    backoff_cap = 16;
    shed_policy = Newest_first;
  }

let config ?queue_cap ?tokens_per_round ?token_burst ?headroom_margin ?startup_deadline
    ?queue_patience ?retry_budget ?backoff_base ?backoff_cap ?shed_policy () =
  let d = default_config in
  let cfg =
    {
      queue_cap = Option.value queue_cap ~default:d.queue_cap;
      tokens_per_round =
        (match tokens_per_round with Some t -> Some t | None -> d.tokens_per_round);
      token_burst = (match token_burst with Some t -> Some t | None -> d.token_burst);
      headroom_margin = Option.value headroom_margin ~default:d.headroom_margin;
      startup_deadline = Option.value startup_deadline ~default:d.startup_deadline;
      queue_patience = Option.value queue_patience ~default:d.queue_patience;
      retry_budget = Option.value retry_budget ~default:d.retry_budget;
      backoff_base = Option.value backoff_base ~default:d.backoff_base;
      backoff_cap = Option.value backoff_cap ~default:d.backoff_cap;
      shed_policy = Option.value shed_policy ~default:d.shed_policy;
    }
  in
  if cfg.queue_cap < 1 then invalid_arg "Serve.config: queue_cap must be >= 1";
  (match cfg.tokens_per_round with
  | Some t when t < 1 -> invalid_arg "Serve.config: tokens_per_round must be >= 1"
  | _ -> ());
  (match cfg.token_burst with
  | Some t when t < 1 -> invalid_arg "Serve.config: token_burst must be >= 1"
  | _ -> ());
  if
    (not (Float.is_finite cfg.headroom_margin))
    || cfg.headroom_margin < 0.0 || cfg.headroom_margin >= 1.0
  then invalid_arg "Serve.config: headroom_margin outside [0, 1)";
  if cfg.startup_deadline < 1 then invalid_arg "Serve.config: startup_deadline must be >= 1";
  if cfg.queue_patience < 1 then invalid_arg "Serve.config: queue_patience must be >= 1";
  if cfg.retry_budget < 1 then invalid_arg "Serve.config: retry_budget must be >= 1";
  if cfg.backoff_base < 1 then invalid_arg "Serve.config: backoff base must be >= 1";
  if cfg.backoff_cap < cfg.backoff_base then
    invalid_arg "Serve.config: backoff cap must be >= base";
  cfg

type arrivals =
  | Scenario_rate
  | Poisson of float
  | Zipf of { rate : float; s : float }
  | Trace of (int * int * int) list

let arrivals_of_name name =
  match String.split_on_char ':' name with
  | [ "scenario" ] -> Ok Scenario_rate
  | [ "poisson"; r ] -> (
      match float_of_string_opt r with
      | Some rate when Float.is_finite rate && rate >= 0.0 -> Ok (Poisson rate)
      | _ -> Error (Printf.sprintf "bad poisson rate '%s'" r))
  | [ "zipf"; r; s ] -> (
      match (float_of_string_opt r, float_of_string_opt s) with
      | Some rate, Some s when Float.is_finite rate && rate >= 0.0 && Float.is_finite s ->
          Ok (Zipf { rate; s })
      | _ -> Error (Printf.sprintf "bad zipf spec '%s:%s' (want zipf:RATE:S)" r s))
  | _ ->
      Error
        (Printf.sprintf "unknown arrivals '%s' (want scenario, poisson:RATE or zipf:RATE:S)"
           name)

let arrivals_label = function
  | Scenario_rate -> "scenario"
  | Poisson r -> Printf.sprintf "poisson:%.4f" r
  | Zipf { rate; s } -> Printf.sprintf "zipf:%.4f:%.4f" rate s
  | Trace _ -> "trace"

type totals = {
  arrivals : int;
  flash_arrivals : int;
  admitted : int;
  completed : int;
  shed : int;
  rejected : int;
  retries : int;
  retry_sessions : int;
  retry_budget : int;
  interrupted : int;
  expired : int;
  overflow_shed : int;
  overload_shed : int;
  helpers_drafted : int;
  stalled_rounds : int;
  total_unserved : int;
  max_queue : int;
  degraded_rounds : int;
}

type outcome = {
  scenario : Scenario.t;
  seed : int;
  rounds : int;
  totals : totals;
  live_at_end : int;
  slo : Slo.summary list;
  jsonl : string;
  slo_jsonl : string;
}

let validate = Chaos.validate

(* ------------------------------------------------------------------ *)
(* KPI budgets as SLOs                                                 *)
(* ------------------------------------------------------------------ *)

(* The service compiles its own SLO set: a stall objective is always on
   (the graceful-degradation contract says admitted viewers never miss
   a round), [max-rejection] budgets the share of admission decisions
   that drop a session, and [max-startup-p95] keeps the chaos startup
   tail semantics. *)

let compiled_slos (s : Scenario.t) ~admission =
  let kpi = s.Scenario.kpi in
  let budget field f = match field with Some v -> f v | None -> [] in
  Chaos.budget_slo "stall" 0.01 Telemetry.rejection
  @ budget kpi.Scenario.max_rejection (fun r -> Chaos.budget_slo "admission" r admission)
  @ budget kpi.Scenario.max_startup_p95 (fun l ->
        Chaos.budget_slo "startup" 0.05 (Telemetry.startup_tail ~limit:l))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type sess = {
  id : int;
  box : int;
  video : int;
  arrived : int;
  priority : int; (* 0 = flash crowd (sheddable first), 1 = background *)
  mutable state : Session.state;
  mutable deadline : int; (* queue patience, then startup deadline *)
  mutable admitted_at : int;
}

let is_live s = s.state = Session.Admitted || s.state = Session.Streaming

let run ?rounds ?seed ?(config = default_config) ?(arrivals = Scenario_rate)
    (s : Scenario.t) =
  match Chaos.boot ?rounds ?seed ~config:Chaos.default_config s with
  | Error _ as err -> err
  | Ok sys ->
      let cfg = config in
      let { Chaos.engine; mend; helper_ranges; n_total; m; seed; rounds; _ } = sys in
      let backoff =
        Backoff.create ~seed:(seed + 29) ~policy:Backoff.Decorrelated_jitter
          ~budget:cfg.retry_budget ~base:cfg.backoff_base ~cap:cfg.backoff_cap ()
      in
      let generator =
        let rate_gen rate =
          if rate > 0.0 then
            Generators.uniform_arrivals (Prng.create ~seed:(seed + 7) ()) ~rate
          else Generators.nothing
        in
        match arrivals with
        | Scenario_rate -> rate_gen s.rate
        | Poisson rate -> rate_gen rate
        | Zipf { rate; s = zs } ->
            if rate > 0.0 then
              Generators.zipf_arrivals (Prng.create ~seed:(seed + 7) ()) ~rate ~s:zs
            else Generators.nothing
        | Trace script -> Generators.replay script
      in
      (* capacity model: online upload slots, a reserve for repair
         traffic plus the configured safety margin, and a projected cost
         of c slots per live session *)
      let c = s.c in
      (* A helper's admission-capacity credit is capped at one upload
         slot per replica it holds: a spare-upload box with a tiny
         replica set can relieve viewers of those stripes but cannot
         serve arbitrary admissions, and counting its raw slot total
         would open the floodgates on capacity the matching does not
         have. *)
      let box_slots b =
        let slots = Engine.upload_slots_of_box engine b in
        if Engine.is_helper engine b then
          min slots (Array.length (Allocation.stripes_of_box (Engine.alloc engine) b))
        else slots
      in
      let online_slots () =
        let total = ref 0 in
        for b = 0 to n_total - 1 do
          if Engine.is_online engine b then total := !total + box_slots b
        done;
        !total
      in
      let reserve slots =
        s.budget + int_of_float (ceil (cfg.headroom_margin *. float_of_int slots))
      in
      let slots0 = online_slots () in
      let tokens_per_round =
        match cfg.tokens_per_round with
        | Some t -> t
        | None -> max 1 ((slots0 - reserve slots0) / (c * (s.duration + 2)))
      in
      let token_burst =
        match cfg.token_burst with Some t -> t | None -> 4 * tokens_per_round
      in
      let capacity_sessions = min (max 0 ((slots0 - reserve slots0) / c)) s.n in
      let nu =
        match s.population with
        | Scenario.Homogeneous when s.u > 1.0 -> (
            try Some (Vod_analysis.Theorem1.nu ~u:s.u ~mu:s.mu ~c) with Invalid_argument _ -> None)
        | _ -> None
      in
      (* session store and deterministic orders *)
      let sessions : (int, sess) Hashtbl.t = Hashtbl.create 256 in
      let next_id = ref 0 in
      let queue : sess Vec.t = Vec.create () in
      let live_order : sess Vec.t = Vec.create () in
      let box_owner : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let retry_at : (int, int Vec.t) Hashtbl.t = Hashtbl.create 16 in
      let admitted_vid : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let tokens = ref token_burst in
      let degraded = ref false in
      (* Measured matching shortfall, in slots.  Aggregate headroom
         cannot see per-replica or per-link constraints (an ISP
         bottleneck halves real capacity long before the slot sum goes
         negative), so the controller closes the loop on the engine's
         own unserved count: every stalled round adds its shortfall to
         the headroom debt (forcing shedding next round).  The debt is
         sticky — probing it away risks stalling an admitted viewer, so
         it halves only after [clean_streak] consecutive clean rounds
         (slow, hysteretic re-admission instead of oscillation). *)
      let shortfall = ref 0 in
      let clean_rounds = ref 0 in
      let clean_streak = 8 in
      (* totals *)
      let t_arrivals = ref 0
      and t_flash = ref 0
      and t_admitted = ref 0
      and t_completed = ref 0
      and t_shed = ref 0
      and t_rejected = ref 0
      and t_retries = ref 0
      and t_retry_sessions = ref 0
      and t_interrupted = ref 0
      and t_expired = ref 0
      and t_overflow = ref 0
      and t_overload = ref 0
      and t_helpers = ref 0
      and t_stalled_rounds = ref 0
      and t_unserved = ref 0
      and t_max_queue = ref 0
      and t_degraded = ref 0 in
      (* per-round counters *)
      let r_arrivals = ref 0
      and r_admitted = ref 0
      and r_retried = ref 0
      and r_shed = ref 0
      and r_rejected = ref 0
      and r_interrupted = ref 0
      and r_expired = ref 0
      and r_completed = ref 0 in
      let buf = Buffer.create (rounds * 128) in
      let line fmt = Printf.ksprintf (fun str -> Buffer.add_string buf (str ^ "\n")) fmt in
      line
        {|{"type":"meta","version":"vod-serve/1","scenario":"%s","arrivals":"%s","seed":%d,"rounds":%d,"n":%d,"m":%d,"c":%d,"k":%d,"queue_cap":%d,"tokens_per_round":%d,"token_burst":%d,"retry_budget":%d,"backoff_base":%d,"backoff_cap":%d,"shed_policy":"%s","slots":%d,"reserve":%d,"capacity_sessions":%d,"nu":%s}|}
        (Json.escape s.name)
        (Json.escape (arrivals_label arrivals))
        seed rounds n_total m c s.k cfg.queue_cap tokens_per_round token_burst
        cfg.retry_budget cfg.backoff_base cfg.backoff_cap
        (shed_policy_name cfg.shed_policy)
        slots0 (reserve slots0) capacity_sessions
        (match nu with Some v -> Printf.sprintf "%.4f" v | None -> "null");
      let admission _ _ = (!r_shed + !r_rejected, !r_admitted + !r_shed + !r_rejected) in
      let slo =
        Slo.stream ~scenario:s.name ~config:"serve" ~seed ~rounds (compiled_slos s ~admission)
      in
      (* ------------------------------------------------------------ *)
      (* session plumbing                                              *)
      (* ------------------------------------------------------------ *)
      let deliver sess msg =
        match Session.transition sess.state msg with
        | Some st -> sess.state <- st
        | None ->
            invalid_arg
              (Printf.sprintf "Serve: illegal message in state %s (session %d)"
                 (Session.state_name sess.state) sess.id)
      in
      let finalize sess =
        Hashtbl.remove box_owner sess.box;
        Backoff.reset backoff ~key:sess.id
      in
      let shed_terminal sess =
        deliver sess (Session.Shed_notice { session = sess.id });
        finalize sess;
        incr r_shed;
        incr t_shed;
        Registry.incr obs_shed
      in
      let reject_terminal sess reason =
        deliver sess (Session.Deny { session = sess.id; reason });
        finalize sess;
        incr r_rejected;
        incr t_rejected;
        Registry.incr obs_rejected
      in
      (* Park a failed session in the retry loop — or end it when the
         budget is spent ([`Shed] for load/fault losses, [`Rejected] for
         admission denials). *)
      let park_retry sess ~time ~on_exhausted =
        match Backoff.record_failure backoff ~key:sess.id ~time with
        | Backoff.Exhausted -> (
            match on_exhausted with
            | `Shed -> shed_terminal sess
            | `Rejected -> reject_terminal sess Session.Budget_exhausted)
        | Backoff.Retry_at at ->
            let attempt = Backoff.attempts backoff ~key:sess.id in
            if attempt = 1 then incr t_retry_sessions;
            deliver sess (Session.Retry_after { session = sess.id; at; attempt });
            let bucket =
              match Hashtbl.find_opt retry_at at with
              | Some v -> v
              | None ->
                  let v = Vec.create () in
                  Hashtbl.add retry_at at v;
                  v
            in
            Vec.push bucket sess.id
      in
      let rebuild_queue kept =
        Vec.clear queue;
        List.iter (Vec.push queue) kept
      in
      (* bounded arrival queue: on overflow the entry with the oldest
         deadline is shed terminally (it is the closest to useless) *)
      let enqueue sess =
        Vec.push queue sess;
        if Vec.length queue > cfg.queue_cap then begin
          let victim = ref sess in
          Vec.iter (fun s -> if s.deadline < !victim.deadline then victim := s) queue;
          let v = !victim in
          let kept = Vec.to_list queue |> List.filter (fun s -> s.id <> v.id) in
          rebuild_queue kept;
          shed_terminal v;
          incr t_overflow
        end
      in
      let new_session ~box ~video ~time ~priority =
        let id = !next_id in
        incr next_id;
        let sess =
          {
            id;
            box;
            video;
            arrived = time;
            priority;
            state = Session.Arriving;
            deadline = time + cfg.queue_patience;
            admitted_at = -1;
          }
        in
        Hashtbl.replace sessions id sess;
        Hashtbl.replace box_owner box id;
        incr r_arrivals;
        incr t_arrivals;
        Registry.incr obs_arrivals;
        enqueue sess
      in
      (* a flash crowd arrives as admission events, not as direct
         engine demands: every extra viewer queues like anyone else and
         is sheddable (priority 0) under overload *)
      let flash ~time ~video ~viewers =
        let idle =
          Engine.idle_boxes engine
          |> List.filter (fun b -> not (Hashtbl.mem box_owner b))
          |> Array.of_list
        in
        Sample.shuffle sys.Chaos.crowd_rng idle;
        for i = 0 to min viewers (Array.length idle) - 1 do
          new_session ~box:idle.(i) ~video ~time ~priority:0;
          incr t_flash
        done
      in
      let allowed_new video =
        let admitted_now =
          match Hashtbl.find_opt admitted_vid video with Some k -> k | None -> 0
        in
        let size = Engine.swarm_size engine video + admitted_now in
        let target = int_of_float (ceil (float_of_int (max size 1) *. s.mu)) in
        target - size
      in
      let live_count () = Vec.fold_left (fun acc s -> if is_live s then acc + 1 else acc) 0 live_order in
      (* Sourcing feasibility: a video is streamable only while every
         one of its stripes has an online replica on a box with upload
         capacity left after degradation (the live allocation includes
         Mend's repairs).  Conservative — the matching can also source
         from playback caches — but a [false] here means an admitted
         viewer of that video is at risk of stalling, and the contract
         is to recover such sessions, not stall them. *)
      let sourceable_memo : (int, bool) Hashtbl.t = Hashtbl.create 16 in
      let sourceable video =
        match Hashtbl.find_opt sourceable_memo video with
        | Some v -> v
        | None ->
            let alloc_now = Engine.alloc engine in
            let cat = Allocation.catalog alloc_now in
            let v =
              Array.for_all
                (fun stripe ->
                  Array.exists
                    (fun b ->
                      Engine.is_online engine b && Engine.upload_slots_of_box engine b > 0)
                    (Allocation.boxes_of_stripe alloc_now stripe))
                (Catalog.stripes_of_video cat video)
            in
            Hashtbl.replace sourceable_memo video v;
            v
      in
      (* ------------------------------------------------------------ *)
      (* the round loop                                                *)
      (* ------------------------------------------------------------ *)
      for _ = 1 to rounds do
        let time = Engine.now engine + 1 in
        (* the backlog carried over from the previous round's admission
           scan — the degradation signal below reads this, not the
           transient intra-round occupancy (which always includes this
           round's not-yet-scanned arrivals, and would flag a healthy
           service degraded whenever the background rate alone tops the
           queue threshold) *)
        let backlog = Vec.length queue in
        r_arrivals := 0;
        r_admitted := 0;
        r_retried := 0;
        r_shed := 0;
        r_rejected := 0;
        r_interrupted := 0;
        r_expired := 0;
        r_completed := 0;
        Hashtbl.reset admitted_vid;
        Hashtbl.reset sourceable_memo;
        (* 1. fault-plan events (flash crowds enqueue arrival bursts) *)
        Chaos.apply_events sys ~time ~flash:(flash ~time);
        (* 2. interrupts: admitted viewers whose box went dark (the
           engine already dropped their requests with the box) or whose
           video lost every online replica of some stripe re-enter
           through the retry loop — recovered, never left to stall *)
        let survivors =
          Vec.fold_left
            (fun acc sess ->
              if not (is_live sess) then acc
              else if
                (not (Engine.is_online engine sess.box)) || not (sourceable sess.video)
              then begin
                if Engine.is_online engine sess.box then Engine.cancel engine sess.box;
                park_retry sess ~time ~on_exhausted:`Shed;
                incr r_interrupted;
                incr t_interrupted;
                Registry.incr obs_interrupted;
                acc
              end
              else sess :: acc)
            [] live_order
        in
        Vec.clear live_order;
        List.iter (Vec.push live_order) (List.rev survivors);
        (* 3. due retries re-join the arrival queue (idempotent: same
           session id, a re-admission never double-counts arrival) *)
        (match Hashtbl.find_opt retry_at time with
        | None -> ()
        | Some bucket ->
            Vec.iter
              (fun id ->
                let sess = Hashtbl.find sessions id in
                if sess.state = Session.Retrying then begin
                  deliver sess (Session.Join { session = id; box = sess.box; video = sess.video });
                  sess.deadline <- time + cfg.queue_patience;
                  incr r_retried;
                  incr t_retries;
                  Registry.incr obs_retries;
                  enqueue sess
                end)
              bucket;
            Hashtbl.remove retry_at time);
        (* 4. background arrivals *)
        List.iter
          (fun (box, video) ->
            if not (Hashtbl.mem box_owner box) then
              new_session ~box ~video ~time ~priority:1)
          (generator engine time);
        (* 5. queue patience: out-waited arrivals expire into the retry
           loop (deadline-aware recovery, not a silent drop) *)
        let kept =
          Vec.fold_left
            (fun acc sess ->
              if sess.state <> Session.Arriving then acc
              else if time > sess.deadline then begin
                park_retry sess ~time ~on_exhausted:`Shed;
                incr r_expired;
                incr t_expired;
                Registry.incr obs_expired;
                acc
              end
              else sess :: acc)
            [] queue
        in
        rebuild_queue (List.rev kept);
        (* 6. measured headroom, degradation and overload shedding *)
        let slots = ref (online_slots ()) in
        let headroom = ref (!slots - reserve !slots - (c * live_count ()) - !shortfall) in
        let high = cfg.queue_cap * 3 / 4 and low = cfg.queue_cap / 4 in
        if !headroom < c || backlog > high then degraded := true
        else if !headroom >= c && backlog <= low then degraded := false;
        if !degraded then begin
          incr t_degraded;
          Registry.incr obs_degraded_rounds
        end;
        if !headroom < 0 then begin
          (* capacity collapsed under admitted load (outage): relieve or
             shed sessions — never let admitted viewers stall *)
          if cfg.shed_policy = Helper_first then
            Array.iter
              (fun (start, count) ->
                for b = start to start + count - 1 do
                  if not (Engine.is_online engine b) then begin
                    Engine.set_online engine b true;
                    incr t_helpers;
                    let gained = box_slots b in
                    slots := !slots + gained;
                    headroom := !headroom + gained
                  end
                done)
              helper_ranges;
          let live = ref (Vec.to_list live_order |> List.filter is_live) in
          while !headroom < 0 && !live <> [] do
            let victim, rest =
              match cfg.shed_policy with
              | Newest_first | Helper_first -> (
                  match List.rev !live with
                  | v :: tl -> (v, List.rev tl)
                  | [] -> assert false)
              | Lowest_priority ->
                  let v =
                    List.fold_left
                      (fun best sess ->
                        match best with
                        | None -> Some sess
                        | Some b ->
                            if
                              sess.priority < b.priority
                              || (sess.priority = b.priority
                                 && (sess.admitted_at > b.admitted_at
                                    || (sess.admitted_at = b.admitted_at && sess.id > b.id)))
                            then Some sess
                            else best)
                      None !live
                    |> Option.get
                  in
                  (v, List.filter (fun sess -> sess.id <> v.id) !live)
            in
            live := rest;
            Engine.cancel engine victim.box;
            park_retry victim ~time ~on_exhausted:`Shed;
            incr t_overload;
            headroom := !headroom + c
          done
        end;
        (* 7. admission: token bucket + headroom + per-video mu bound *)
        tokens := min token_burst (!tokens + tokens_per_round);
        let kept =
          Vec.fold_left
            (fun acc sess ->
              if sess.state <> Session.Arriving then acc
              else if !tokens <= 0 || !headroom < c then sess :: acc
              else if allowed_new sess.video <= 0 then sess :: acc
              else if not (sourceable sess.video) then sess :: acc
                (* unsourceable title: hold in queue until Mend repairs
                   it or the patience deadline recycles the session *)
              else
                match Engine.try_demand engine ~box:sess.box ~video:sess.video with
                | Engine.Admitted ->
                    deliver sess
                      (Session.Grant { session = sess.id; deadline = time + cfg.startup_deadline });
                    sess.admitted_at <- time;
                    sess.deadline <- time + cfg.startup_deadline;
                    decr tokens;
                    headroom := !headroom - c;
                    Hashtbl.replace admitted_vid sess.video
                      (1
                      +
                      match Hashtbl.find_opt admitted_vid sess.video with
                      | Some k -> k
                      | None -> 0);
                    Vec.push live_order sess;
                    incr r_admitted;
                    incr t_admitted;
                    Registry.incr obs_admitted;
                    Registry.observe obs_queue_wait (time - sess.arrived);
                    acc
                | Engine.Queued -> sess :: acc (* box mid-playback: wait *)
                | Engine.Rejected Engine.Offline ->
                    park_retry sess ~time ~on_exhausted:`Rejected;
                    acc
                | Engine.Rejected (Engine.Helper | Engine.Out_of_range) ->
                    reject_terminal sess Session.Invalid;
                    acc)
            [] queue
        in
        rebuild_queue (List.rev kept);
        (* 8. the simulator round, with repair under it *)
        Mend.tick mend engine;
        let report = Engine.step engine in
        ignore (Mend.collect mend engine : int);
        (* 9. session accounting: startups, completions, missed
           startup deadlines *)
        Vec.iter
          (fun sess ->
            if sess.state = Session.Admitted then begin
              if Engine.awaiting_first engine sess.box = 0 then
                deliver sess (Session.First_chunk { session = sess.id; round = time })
              else if time > sess.deadline then begin
                (* the engine never produced a first chunk in time:
                   cancel and recover through the retry loop *)
                Engine.cancel engine sess.box;
                park_retry sess ~time ~on_exhausted:`Shed;
                incr r_expired;
                incr t_expired;
                Registry.incr obs_expired
              end
            end)
          live_order;
        Vec.iter
          (fun sess ->
            if sess.state = Session.Streaming && Engine.is_idle engine sess.box then begin
              deliver sess (Session.Complete { session = sess.id; round = time });
              finalize sess;
              incr r_completed;
              incr t_completed;
              Registry.incr obs_completed
            end)
          live_order;
        (* 10. stall accounting, SLOs, telemetry, the round line *)
        if report.Engine.unserved > 0 then begin
          incr t_stalled_rounds;
          Registry.incr obs_stalled_rounds;
          shortfall := !shortfall + report.Engine.unserved;
          clean_rounds := 0
        end
        else begin
          incr clean_rounds;
          if !clean_rounds >= clean_streak && !shortfall > 0 then begin
            shortfall := !shortfall / 2;
            clean_rounds := 0
          end
        end;
        t_unserved := !t_unserved + report.Engine.unserved;
        if Vec.length queue > !t_max_queue then t_max_queue := Vec.length queue;
        Slo.stream_round slo ~round:report.Engine.time engine report;
        let live = live_count () in
        let streaming =
          Vec.fold_left
            (fun acc sess -> if sess.state = Session.Streaming then acc + 1 else acc)
            0 live_order
        in
        let retrying =
          Hashtbl.fold
            (fun _ sess acc -> if sess.state = Session.Retrying then acc + 1 else acc)
            sessions 0
        in
        line
          {|{"type":"round","t":%d,"state":"%s","arrivals":%d,"admitted":%d,"retried":%d,"queue":%d,"tokens":%d,"headroom":%d,"shortfall":%d,"live":%d,"streaming":%d,"retrying":%d,"interrupted":%d,"expired":%d,"shed":%d,"rejected":%d,"completed":%d,"served":%d,"unserved":%d,"offline":%d}|}
          time
          (if !degraded then "degraded" else "ok")
          !r_arrivals !r_admitted !r_retried (Vec.length queue) !tokens !headroom
          !shortfall live streaming retrying !r_interrupted !r_expired !r_shed !r_rejected
          !r_completed report.Engine.served report.Engine.unserved
          report.Engine.offline_boxes
      done;
      let live_at_end =
        Hashtbl.fold
          (fun _ sess acc -> if Session.is_terminal sess.state then acc else acc + 1)
          sessions 0
      in
      let totals =
        {
          arrivals = !t_arrivals;
          flash_arrivals = !t_flash;
          admitted = !t_admitted;
          completed = !t_completed;
          shed = !t_shed;
          rejected = !t_rejected;
          retries = !t_retries;
          retry_sessions = !t_retry_sessions;
          retry_budget = cfg.retry_budget;
          interrupted = !t_interrupted;
          expired = !t_expired;
          overflow_shed = !t_overflow;
          overload_shed = !t_overload;
          helpers_drafted = !t_helpers;
          stalled_rounds = !t_stalled_rounds;
          total_unserved = !t_unserved;
          max_queue = !t_max_queue;
          degraded_rounds = !t_degraded;
        }
      in
      let ok =
        totals.total_unserved = 0 && totals.retries <= totals.retry_budget * totals.retry_sessions
      in
      line
        {|{"type":"verdict","arrivals":%d,"flash":%d,"admitted":%d,"completed":%d,"shed":%d,"rejected":%d,"retries":%d,"retry_sessions":%d,"retry_budget":%d,"interrupted":%d,"expired":%d,"overflow_shed":%d,"overload_shed":%d,"helpers_drafted":%d,"stalled_rounds":%d,"total_unserved":%d,"max_queue":%d,"degraded_rounds":%d,"live_at_end":%d,"ok":%b}|}
        totals.arrivals totals.flash_arrivals totals.admitted totals.completed totals.shed
        totals.rejected totals.retries totals.retry_sessions totals.retry_budget
        totals.interrupted totals.expired totals.overflow_shed totals.overload_shed
        totals.helpers_drafted totals.stalled_rounds totals.total_unserved totals.max_queue
        totals.degraded_rounds live_at_end ok;
      let slo_summaries, slo_jsonl = Slo.stream_finish slo in
      Ok
        {
          scenario = s;
          seed;
          rounds;
          totals;
          live_at_end;
          slo = slo_summaries;
          jsonl = Buffer.contents buf;
          slo_jsonl;
        }

let run_many ?rounds ?jobs ?config ?arrivals ~replications (s : Scenario.t) =
  Chaos.replicate ~jobs ~rounds ~replications s (fun i ->
      run ?rounds ~seed:(Chaos.replication_seed s i) ?config ?arrivals s)

let verdict_ok o =
  o.totals.total_unserved = 0
  && o.totals.retries <= o.totals.retry_budget * o.totals.retry_sessions

let slo_breached o = List.exists (fun su -> su.Slo.su_final = Slo.Breach) o.slo
