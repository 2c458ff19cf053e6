(* Streaming telemetry over the engine round loop (see telemetry.mli).

   The sink closure only reads the report and the engine's startup
   vector; it never mutates the engine, so installing it cannot change
   a run's outcome — the property the obs-overhead bench gate checks
   (matched counts must be identical with the sink on and off). *)

module Obs = Vod_obs

type slo_binding = {
  b_spec : Obs.Slo.spec;
  b_eval : Obs.Slo.t;
  b_metric : Engine.t -> Engine.round_report -> int * int;
}

type t = {
  series : Obs.Timeseries.t;
  slos : slo_binding list;
  mutable rounds : int;
  mutable startups_seen : int; (* cursor into Engine.startup_delays *)
}

(* Canonical per-round series, in display order. *)
let series_names =
  [
    "demands";
    "active";
    "served";
    "unserved";
    "from_cache";
    "rewired";
    "busy";
    "offline";
    "faulted";
    "repair_active";
    "repair_served";
  ]

let sample (r : Engine.round_report) = function
  | "demands" -> r.Engine.new_demands
  | "active" -> r.Engine.active_requests
  | "served" -> r.Engine.served
  | "unserved" -> r.Engine.unserved
  | "from_cache" -> r.Engine.served_from_cache
  | "rewired" -> r.Engine.rewired
  | "busy" -> r.Engine.busy_boxes
  | "offline" -> r.Engine.offline_boxes
  | "faulted" -> r.Engine.faulted
  | "repair_active" -> r.Engine.repair_active
  | "repair_served" -> r.Engine.repair_served
  | name -> invalid_arg ("Telemetry.sample: unknown series " ^ name)

let rejection _engine (r : Engine.round_report) =
  (r.Engine.unserved, r.Engine.served + r.Engine.unserved)

let sourcing _engine (r : Engine.round_report) =
  (r.Engine.served - r.Engine.served_from_cache, r.Engine.served)

let startup_tail ~limit =
  let seen = ref 0 in
  fun engine (_ : Engine.round_report) ->
    let count = Engine.startup_count engine in
    let bad = ref 0 in
    for i = !seen to count - 1 do
      if float_of_int (Engine.startup_delay engine i) > limit then incr bad
    done;
    let total = count - !seen in
    seen := count;
    (!bad, total)

let default_slos () =
  [
    (Obs.Slo.spec ~name:"rejection" ~target:0.05 (), rejection);
    (Obs.Slo.spec ~name:"startup" ~target:0.05 (), startup_tail ~limit:3.0);
  ]

let create ?(capacity = 1024) ?(windows = [ 100; 1000 ]) ?(slos = []) () =
  let series = Obs.Timeseries.create ~capacity ~windows () in
  (* create in canonical order so Timeseries.names is stable *)
  List.iter (fun n -> ignore (Obs.Timeseries.series series n)) series_names;
  let slos =
    List.map
      (fun (spec, metric) -> { b_spec = spec; b_eval = Obs.Slo.create spec; b_metric = metric })
      slos
  in
  { series; slos; rounds = 0; startups_seen = 0 }

let observe t engine report =
  List.iter
    (fun name -> Obs.Timeseries.push (Obs.Timeseries.series t.series name) (sample report name))
    series_names;
  List.iter
    (fun b ->
      let bad, total = b.b_metric engine report in
      Obs.Slo.observe b.b_eval ~bad ~total)
    t.slos;
  t.rounds <- t.rounds + 1

let attach t engine = Engine.set_round_sink engine (Some (fun report -> observe t engine report))
let timeseries t = t.series
let series t name = Obs.Timeseries.series t.series name
let slos t = List.map (fun b -> b.b_eval) t.slos
let rounds t = t.rounds
