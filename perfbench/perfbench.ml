(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
     perfbench --workload NAME --seed N --inputs
     perfbench --workload NAME --seed N --scenario

   [--trace 0] reports the end-to-end metrics from repetitions of the
   workload made for [S] seconds, each with its own system build.
   [--trace 1] reports the per-layer metrics (self time of every span,
   registry counters, tracing overhead) from untraced and traced
   repetitions made in pairs.  Either way every outcome is checked, and
   the program prints a table followed by one JSON line:

     {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

   [attempted] counts simulated rounds; [failed] counts them all when
   any correctness or determinism check failed, and is 0 otherwise.
   [--smoke] shrinks every workload for the self-tests; [--inputs]
   prints a digest of the seed-generated inputs, and [--scenario] a serve
   workload's generated scenario file. *)

open Vod
module W = Workloads
module R = Runs

(* ---------------- statistics ---------------- *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a and n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let medians f runs = median (Array.of_list (List.map f runs))

(* ---------------- report ---------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_report ~workload ~seed ~trace ~errors ~attempted metrics =
  Printf.printf "perfbench %s seed=%d trace=%d\n" workload seed trace;
  List.iter
    (fun m -> Printf.printf "  %-34s %18.6f %-6s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) errors;
  let correct = errors = [] in
  let json m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
      m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted
    (if correct then 0 else attempted)
    (String.concat ", " (List.map json metrics))

(* ---------------- shared measurement plumbing ---------------- *)

type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;
  mutable errors : string list;
  mutable attempted : int;
}

let fail ctx msg = ctx.errors <- ctx.errors @ [ msg ]
let fail_all ctx = List.iter (fail ctx)

(* Repetitions of [f] while another one fits in [seconds] at the mean
   pace so far, and until [enough] holds of the results. *)
let repeat ctx ~enough f =
  let t0 = Unix.gettimeofday () in
  let rec go acc k =
    let elapsed = Unix.gettimeofday () -. t0 in
    let pace = if k = 0 then 0.0 else elapsed /. float_of_int k in
    if elapsed +. pace > ctx.seconds && enough acc then List.rev acc
    else begin
      Gc.full_major ();
      go (f () :: acc) (k + 1)
    end
  in
  go [] 0

let at_least k l = List.length l >= k
let min_reps = 4

let same_digest ctx ~what digests =
  match digests with
  | [] -> ()
  | d :: rest ->
      if List.exists (fun d' -> d' <> d) rest then
        fail ctx
          (Printf.sprintf "determinism: %s differs across repetitions at one seed" what)

let setup_reps = 7

(* The median of each public build call over [setup_reps] builds. *)
let time_setup_parts build =
  let parts = Hashtbl.create 8 in
  for _ = 1 to setup_reps do
    Gc.full_major ();
    ignore (Sys.opaque_identity (build ()));
    List.iter
      (fun (name, s) ->
        let prev = Option.value (Hashtbl.find_opt parts name) ~default:[] in
        Hashtbl.replace parts name (s :: prev))
      !W.last_parts
  done;
  fun name ->
    match Hashtbl.find_opt parts name with
    | Some l -> median (Array.of_list l) *. 1e3
    | None -> 0.0

(* [builds_per_rep] timed system builds, made at the start of every
   repetition so that [setup_s] samples the whole run. *)
let builds_per_rep = 5

let time_builds build =
  List.init builds_per_rep (fun _ ->
      Gc.full_major ();
      R.timed build)

let setup_metric samples =
  let samples = Array.of_list (List.concat samples) in
  metric "setup_s" "s" (median samples)
    ~note:(Printf.sprintf "median of %d builds" (Array.length samples))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Every repetition simulates the same steady rounds, so each round has
   one host time per repetition; the round metrics read each round at its
   fastest.  On a host whose speed changes from one second to the next,
   the fastest of several runs of identical work is the steadiest reading
   of its cost.  The tail is the highest percentile with ten rounds
   beyond it. *)
let fastest_per_round reps =
  match reps with
  | [] -> [||]
  | first :: rest ->
      let best = Array.copy first in
      List.iter (Array.iteri (fun i t -> if t < best.(i) then best.(i) <- t)) rest;
      best

let round_metrics reps =
  let times = fastest_per_round reps in
  let n = Array.length times in
  let from = Printf.sprintf "fastest of %d repetitions per round" (List.length reps) in
  let beyond = min 10 (n - 1) in
  let tail = if n = 0 then 0.0 else (sorted times).(n - 1 - beyond) in
  let tail_pct = 100.0 *. float_of_int (n - beyond) /. float_of_int (max 1 n) in
  [
    metric "rounds_per_s" "1/s"
      (float_of_int n /. Array.fold_left ( +. ) 0.0 times)
      ~note:(Printf.sprintf "%d steady rounds, %s" n from);
    metric "round_ms_p50" "ms" (median times *. 1e3) ~note:from;
    metric "round_ms_tail" "ms" (tail *. 1e3)
      ~note:(Printf.sprintf "p%.1f of %d steady rounds, %d beyond it" tail_pct n beyond);
  ]

(* ---------------- span arithmetic ---------------- *)

let dur (ev : Obs.Span.event) = ev.stop_ns - ev.start_ns
let ms ns = float_of_int ns /. 1e6

(* The layer metric each span's self time is reported under: the
   benchmark's own spans around the public calls it makes, then the
   engine's.  [gap] is host time inside [Serve.run] between engine rounds,
   which no span covers. *)
let span_layers =
  [
    ("gap", "serve.self_ms_per_round");
    ("workload.gen", "workload.gen_us_per_round");
    ("engine.try_demand", "engine.try_demand_ms");
    ("round", "engine.round_self_ms");
    ("demand-admit", "engine.demand_admit_ms");
    ("build", "engine.build_ms");
    ("matching", "engine.matching_ms");
    ("account", "engine.account_ms");
  ]

type traced = {
  wall_ms : float;  (** The root span: the whole traced repetition. *)
  window_ms : float;  (** The steady window. *)
  steady : int;  (** Engine rounds in the window. *)
  self_ms : (string * float) list;
      (** Total self time in the window by span name, plus [gap]. *)
  round_ms : float;  (** Total engine round span time in the window. *)
}

(* The steady window runs from the end of the last warm-up round to the
   end of the last round.  Every span inside it is attributed to its name
   by self time (its duration minus its direct children's).  With
   [serve_gap], the time between the window's top-level spans is
   [Serve.run]'s own work and is attributed to "gap"; otherwise it is the
   benchmark's glue between calls, and stays unattributed. *)
let analyse (events : Obs.Span.event list) ~warmup ~serve_gap =
  let root = List.find (fun (ev : Obs.Span.event) -> ev.name = "bench") events in
  let rounds = R.round_spans events in
  let n = Array.length rounds in
  let first = min warmup n in
  let lo = if first = 0 then root.start_ns else rounds.(first - 1).stop_ns in
  let hi = if n = 0 then lo else rounds.(n - 1).stop_ns in
  let inside =
    List.filter
      (fun (ev : Obs.Span.event) -> ev.start_ns >= lo && ev.stop_ns <= hi)
      events
  in
  let ids = Hashtbl.create 1024 and child = Hashtbl.create 1024 in
  List.iter (fun (ev : Obs.Span.event) -> Hashtbl.replace ids ev.id ()) inside;
  let top = ref 0 and round_ns = ref 0 in
  List.iter
    (fun (ev : Obs.Span.event) ->
      if Hashtbl.mem ids ev.parent then
        Hashtbl.replace child ev.parent
          (dur ev + Option.value (Hashtbl.find_opt child ev.parent) ~default:0)
      else top := !top + dur ev;
      if ev.name = "round" then round_ns := !round_ns + dur ev)
    inside;
  let by_name = Hashtbl.create 16 in
  let add name ns =
    Hashtbl.replace by_name name
      (ns + Option.value (Hashtbl.find_opt by_name name) ~default:0)
  in
  List.iter
    (fun (ev : Obs.Span.event) ->
      add ev.name (dur ev - Option.value (Hashtbl.find_opt child ev.id) ~default:0))
    inside;
  if serve_gap then add "gap" (hi - lo - !top);
  {
    wall_ms = ms (dur root);
    window_ms = ms (hi - lo);
    steady = n - first;
    self_ms = Hashtbl.fold (fun name ns acc -> (name, ms ns) :: acc) by_name [];
    round_ms = ms !round_ns;
  }

(* A span layer's metric: its self time per steady round. *)
let layer_value (t : traced) (span, metric_name) =
  Option.value (List.assoc_opt span t.self_ms) ~default:0.0
  /. float_of_int (max 1 t.steady)
  *. if metric_name = "workload.gen_us_per_round" then 1e3 else 1.0

(* The share of the steady window the reported span layers account for.
   Per-layer self times that miss the window by more than 5% mean a layer
   went unreported, and fail the run. *)
let coverage ctx (t : traced) =
  let attributed, missing =
    List.partition (fun (span, _) -> List.mem_assoc span span_layers) t.self_ms
  in
  let sum l = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 l in
  let pct = 100.0 *. sum attributed /. t.window_ms in
  if Float.abs (pct -. 100.0) > 5.0 then
    fail ctx
      (Printf.sprintf
         "span coverage: reported layers cover %.1f%% of the steady window (%.1f ms)%s"
         pct t.window_ms
         (String.concat ""
            (List.map (fun (name, v) -> Printf.sprintf "; %s %.1f ms unreported" name v)
               missing)));
  pct

(* Untraced and traced runs in pairs, alternating which goes first so
   that a drift in the host's speed does not read as tracing overhead. *)
let in_pairs ctx ~untraced ~traced =
  let k = ref 0 in
  repeat ctx ~enough:(at_least 2) (fun () ->
      incr k;
      if !k mod 2 = 1 then begin
        let u = untraced () in
        Gc.full_major ();
        (u, traced ())
      end
      else begin
        let t = traced () in
        Gc.full_major ();
        (untraced (), t)
      end)

let recorded ctx ~rounds f =
  let x, recording = R.with_recorder ~rounds f in
  if recording.dropped > 0 then
    fail ctx (Printf.sprintf "recorder dropped %d spans" recording.dropped);
  (x, recording.events)

let traced_run ctx ~rounds f =
  Obs.Registry.reset Obs.Registry.default;
  recorded ctx ~rounds (fun () -> W.span "bench" f)

let counter name =
  Obs.Registry.counter_value (Obs.Registry.counter Obs.Registry.default name)

(* Every per-layer metric, in report order, with its unit. *)
let layer_units =
  [
    ("serve.self_ms_per_round", "ms");
    ("serve.admitted", "count");
    ("serve.shed", "count");
    ("serve.rejected", "count");
    ("serve.retries", "count");
    ("serve.expired", "count");
    ("serve.admit_ratio", "ratio");
    ("serve.queue_wait_mean", "rounds");
    ("engine.step_ms", "ms");
    ("engine.alloc_kb_per_step", "KB");
    ("engine.try_demand_ms", "ms");
    ("engine.round_self_ms", "ms");
    ("engine.demand_admit_ms", "ms");
    ("engine.build_ms", "ms");
    ("engine.matching_ms", "ms");
    ("engine.account_ms", "ms");
    ("engine.active_requests", "count");
    ("engine.create_ms", "ms");
    ("engine.startup_p95_rounds", "rounds");
    ("bipartite.solve_ms", "ms");
    ("bipartite.edges", "count");
    ("bipartite.n_left", "count");
    ("bipartite.hall_violator_ms", "ms");
    ("dinic.augmenting_paths", "count");
    ("dinic.bfs_phases", "count");
    ("fault.prepare_ms", "ms");
    ("repair.transfers_started", "count");
    ("repair.transfers_completed", "count");
    ("repair.slot_rounds_served", "count");
    ("alloc.permutation_ms", "ms");
    ("workload.gen_us_per_round", "us");
    ("obs.trace_overhead_pct", "%");
    ("obs.span_coverage_pct", "%");
  ]

(* A layer the workload does not run, or cannot be observed in, reads 0. *)
let layer_report ~absent values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some v -> metric name unit_ v
      | None -> metric name unit_ 0.0 ~note:absent)
    layer_units

(* The span-derived layer metrics of the spans the workload emits, as
   medians over traced runs, each paired with the wall time of its
   untraced twin. *)
let span_values ctx runs =
  let m f = medians f runs in
  let covered = List.map (fun ((t : traced), _) -> coverage ctx t) runs in
  let present = match runs with (t, _) :: _ -> List.map fst t.self_ms | [] -> [] in
  List.filter_map
    (fun ((span, name) as layer) ->
      if List.mem span present then Some (name, m (fun (t, _) -> layer_value t layer))
      else None)
    span_layers
  @ [
      ( "obs.trace_overhead_pct",
        m (fun ((t : traced), untraced_ms) ->
            100.0 *. ((t.wall_ms /. untraced_ms) -. 1.0)) );
      ("obs.span_coverage_pct", median (Array.of_list covered));
    ]

(* ---------------- engine workloads ---------------- *)

let engine_runs_agree ctx (runs : R.engine_run list) =
  same_digest ctx ~what:"engine round reports and start-up delays"
    (List.map (fun (r : R.engine_run) -> r.sim_digest) runs)

let engine_checked ?probe ctx w =
  let checked = R.run_engine ?probe w ~seed:ctx.seed ~check:true in
  ctx.attempted <- ctx.attempted + w.W.duration + w.steady;
  fail_all ctx checked.errors;
  checked

let engine_e2e ctx (w : W.engine_spec) =
  let build () = W.engine_setup w ~seed:ctx.seed in
  let reps =
    repeat ctx ~enough:(at_least min_reps) (fun () ->
        let setups = time_builds build in
        Gc.full_major ();
        (setups, R.run_engine w ~seed:ctx.seed ~check:false))
  in
  let setups = List.map fst reps and reps = List.map snd reps in
  let peak = peak_heap_mb () in
  let checked = engine_checked ctx w in
  ctx.attempted <- ctx.attempted + ((w.duration + w.steady) * List.length reps);
  engine_runs_agree ctx (checked :: reps);
  let total = checked.served + checked.unserved in
  List.concat
    [
      [ setup_metric setups ];
      round_metrics (List.map (fun (r : R.engine_run) -> r.round_s) reps);
      [
        metric "alloc_mb_per_round" "MB"
          (medians (fun (r : R.engine_run) -> r.round_bytes) reps
          /. float_of_int w.steady /. 1e6);
        metric "peak_heap_mb" "MB" peak ~note:"after the timed repetitions";
        metric "served_share" "ratio"
          (if total = 0 then 1.0 else float_of_int checked.served /. float_of_int total)
          ~note:(Printf.sprintf "%d of %d stripe-request-rounds" checked.served total);
      ];
    ]

type engine_pair = {
  untraced : R.engine_run;
  untraced_ms : float;
  traced : R.engine_run;
  spans : traced;
  paths : int;  (** Dinic augmenting paths: certificate extraction work. *)
  phases : int;
}

let engine_layer_metrics ctx (w : W.engine_spec) =
  let part = time_setup_parts (fun () -> W.engine_setup w ~seed:ctx.seed) in
  let checked = engine_checked ~probe:true ctx w in
  let rounds = w.duration + w.steady in
  let run () = R.run_engine w ~seed:ctx.seed ~check:false in
  let pairs =
    in_pairs ctx
      ~untraced:(fun () ->
        let t0 = Unix.gettimeofday () in
        let untraced = run () in
        (untraced, (Unix.gettimeofday () -. t0) *. 1e3))
      ~traced:(fun () ->
        let traced, events = traced_run ctx ~rounds run in
        (traced, events, counter "dinic.augmenting_paths", counter "dinic.bfs_phases"))
    |> List.map (fun ((untraced, untraced_ms), (traced, events, paths, phases)) ->
           ctx.attempted <- ctx.attempted + (2 * rounds);
           let spans = analyse events ~warmup:w.duration ~serve_gap:false in
           { untraced; untraced_ms; traced; spans; paths; phases })
  in
  engine_runs_agree ctx
    (checked :: List.concat_map (fun p -> [ p.untraced; p.traced ]) pairs);
  let m f = medians f pairs in
  let per_round x = float_of_int x /. float_of_int rounds in
  let per_steady x = float_of_int x /. float_of_int w.steady in
  let pr = checked.probes in
  let mean_ms total count =
    if count = 0 then 0.0 else total /. float_of_int count *. 1e3
  in
  layer_report ~absent:"layer not run on this workload"
    (span_values ctx (List.map (fun p -> (p.spans, p.untraced_ms)) pairs)
    @ [
        ("engine.step_ms", m (fun p -> median p.untraced.step_s) *. 1e3);
        ("engine.alloc_kb_per_step", m (fun p -> mean p.untraced.step_bytes) /. 1024.0);
        ("engine.active_requests", checked.active_mean);
        ("engine.create_ms", part "engine.create");
        ("engine.startup_p95_rounds", checked.startup_p95);
        ("bipartite.solve_ms", mean_ms pr.solve_s pr.solves);
        ("bipartite.edges", per_steady pr.edges);
        ("bipartite.n_left", per_steady pr.lefts);
        ("bipartite.hall_violator_ms", mean_ms pr.hall_s pr.halls);
        ("dinic.augmenting_paths", m (fun p -> per_round p.paths));
        ("dinic.bfs_phases", m (fun p -> per_round p.phases));
        ("alloc.permutation_ms", part "alloc.permutation");
      ])

(* ---------------- serve workloads ---------------- *)

let serve_checked ctx (o : Serve.outcome) ~rounds =
  ctx.attempted <- ctx.attempted + rounds;
  fail_all ctx (R.check_outcome o ~rounds)

let jsonl_digest (o : Serve.outcome) = Digest.to_hex (Digest.string o.jsonl)

let serve_build ctx (w : W.serve_spec) =
  let s = w.scenario ctx.seed in
  fun () -> W.serve_setup s ~seed:ctx.seed

let served_share_metric (o : Serve.outcome) =
  let t = o.totals in
  let failed = t.shed + t.rejected in
  metric "served_share" "ratio"
    (if t.arrivals = 0 then 1.0
     else 1.0 -. (float_of_int failed /. float_of_int t.arrivals))
    ~note:(Printf.sprintf "%d of %d sessions shed or rejected" failed t.arrivals)

(* Allocation and the peak heap come first, from untraced runs: a full
   run minus its warm-up prefix, which replays the same rounds exactly.
   [Serve.run] exposes no per-round boundary of its own, so the round
   clock of a serve workload is the engine's "round" span: every
   repetition records the spans the engine emits (the round and its four
   phases), and [obs.trace_overhead_pct] gives what that recording
   costs.  Each repetition also makes the build [Serve.run] makes, for
   [setup_s]. *)
let serve_e2e ctx (w : W.serve_spec) =
  let full = w.rounds and prefix = w.warmup in
  let long = R.timed_serve w ~seed:ctx.seed ~rounds:full in
  serve_checked ctx long.outcome ~rounds:full;
  Gc.full_major ();
  let short = R.timed_serve w ~seed:ctx.seed ~rounds:prefix in
  serve_checked ctx short.outcome ~rounds:prefix;
  let peak = peak_heap_mb () in
  let build = serve_build ctx w in
  let reps =
    repeat ctx ~enough:(at_least min_reps) (fun () ->
        let setups = time_builds build in
        Gc.full_major ();
        let o, events =
          recorded ctx ~rounds:full (fun () -> R.serve w ~seed:ctx.seed ~rounds:full)
        in
        serve_checked ctx o ~rounds:full;
        (setups, o, R.service_round_times (R.round_spans events) ~warmup:prefix))
  in
  same_digest ctx ~what:"vod-serve/1 stream"
    (jsonl_digest long.outcome :: List.map (fun (_, o, _) -> jsonl_digest o) reps);
  List.concat
    [
      [ setup_metric (List.map (fun (s, _, _) -> s) reps) ];
      round_metrics (List.map (fun (_, _, t) -> t) reps);
      [
        metric "alloc_mb_per_round" "MB"
          ((long.bytes -. short.bytes) /. float_of_int (full - prefix) /. 1e6)
          ~note:(Printf.sprintf "%d-round run minus its %d-round prefix" full prefix);
        metric "peak_heap_mb" "MB" peak ~note:"after the untraced runs";
        served_share_metric long.outcome;
      ];
    ]

type serve_pair = {
  untraced : R.timed_serve;
  outcome : Serve.outcome;
  spans : traced;
  counts : (string * float) list;  (** Registry values after the traced run. *)
}

let registry_counts ~rounds =
  let c name = float_of_int (counter name) in
  let q = Obs.Registry.histogram Obs.Registry.default "serve.queue_wait" in
  List.map
    (fun name -> (name, c name))
    [
      "serve.admitted";
      "serve.shed";
      "serve.rejected";
      "serve.retries";
      "serve.expired";
      "repair.transfers_started";
      "repair.transfers_completed";
      "repair.slot_rounds_served";
    ]
  @ [
      ( "serve.admit_ratio",
        c "serve.admitted" /. Float.max 1.0 (c "serve.arrivals" +. c "serve.retries") );
      ( "serve.queue_wait_mean",
        float_of_int (Obs.Registry.hist_sum q)
        /. float_of_int (max 1 (Obs.Registry.hist_count q)) );
      ("dinic.augmenting_paths", c "dinic.augmenting_paths" /. float_of_int rounds);
      ("dinic.bfs_phases", c "dinic.bfs_phases" /. float_of_int rounds);
    ]

let serve_layer_metrics ctx (w : W.serve_spec) =
  let part = time_setup_parts (serve_build ctx w) in
  let full = w.rounds in
  let run () = R.serve w ~seed:ctx.seed ~rounds:full in
  let pairs =
    in_pairs ctx
      ~untraced:(fun () -> R.timed_serve w ~seed:ctx.seed ~rounds:full)
      ~traced:(fun () ->
        let outcome, events = traced_run ctx ~rounds:full run in
        (outcome, events, registry_counts ~rounds:full))
    |> List.map (fun ((untraced : R.timed_serve), (outcome, events, counts)) ->
           serve_checked ctx untraced.outcome ~rounds:full;
           serve_checked ctx outcome ~rounds:full;
           {
             untraced;
             outcome;
             spans = analyse events ~warmup:w.warmup ~serve_gap:true;
             counts;
           })
  in
  same_digest ctx ~what:"vod-serve/1 stream"
    (List.concat_map
       (fun p -> [ jsonl_digest p.untraced.outcome; jsonl_digest p.outcome ])
       pairs);
  let m f = medians f pairs in
  let first = List.hd pairs in
  layer_report ~absent:"not run, or hidden inside Serve.run"
    (span_values ctx
       (List.map (fun p -> (p.spans, p.untraced.wall_s *. 1e3)) pairs)
    @ List.map
        (fun (name, _) -> (name, m (fun p -> List.assoc name p.counts)))
        first.counts
    @ [
        ( "engine.step_ms",
          m (fun p -> p.spans.round_ms /. float_of_int (max 1 p.spans.steady)) );
        ("engine.active_requests", R.serve_active_mean first.outcome ~warmup:w.warmup);
        ("engine.create_ms", part "engine.create");
        ("fault.prepare_ms", part "fault.prepare");
        ("alloc.permutation_ms", part "alloc.permutation");
      ])

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and inputs = ref false and scenario = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" W.names);
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " tiny sizes, for the self-tests");
      ("--inputs", Arg.Set inputs, " print a digest of the generated inputs and exit");
      ("--scenario", Arg.Set scenario, " print a serve workload's scenario and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let usage msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let w =
    match W.find ~smoke:!smoke !workload with
    | Some w -> w
    | None -> usage ("unknown workload " ^ !workload)
  in
  if !trace <> 0 && !trace <> 1 then usage "--trace must be 0 or 1";
  if !inputs then print_endline (W.inputs_digest w ~seed:!seed)
  else if !scenario then
    match w.kind with
    | W.Serve_w s -> print_string (Serve.Scenario.to_text (s.scenario !seed))
    | W.Engine_w _ -> usage "--scenario applies to serve workloads"
  else begin
    let ctx =
      { seed = !seed; seconds = !seconds; smoke = !smoke; errors = []; attempted = 0 }
    in
    let metrics =
      match (w.kind, !trace) with
      | W.Engine_w e, 0 -> engine_e2e ctx e
      | W.Engine_w e, _ -> engine_layer_metrics ctx e
      | W.Serve_w s, 0 -> serve_e2e ctx s
      | W.Serve_w s, _ -> serve_layer_metrics ctx s
    in
    print_report ~workload:w.name ~seed:!seed ~trace:!trace ~errors:ctx.errors
      ~attempted:ctx.attempted metrics
  end
