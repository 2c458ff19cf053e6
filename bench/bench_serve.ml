(* Service-mode benchmark: the `vodctl serve` event loop at n = 16384.

   Two records for the CI regression gate (bench/compare.exe), both on
   the same homogeneous fleet the telemetry bench uses (u 2.0, d 4.0,
   c 2, k 4, m 2048):

     serve/loop/poisson      ns per service round under a steady
                             Poisson load the token bucket sustains
                             without queueing — system build, fault
                             sweep, admission scan, engine step,
                             session/startup sweeps and the telemetry
                             sinks, i.e. the whole loop body.
                             matched_per_round = admissions per round.

     serve/admission/storm   ns per admission decision when arrivals
                             run ~4x past the queue capacity: the cost
                             of bounded-queue management, token /
                             headroom / mu checks and the
                             oldest-deadline-first overflow shed, the
                             paths a flash crowd exercises.
                             matched_per_round = decisions per round.

   Serve.run is deterministic at a fixed seed, so matched_per_round is
   exact and the compare drift gate applies at full strength; only the
   ns columns carry noise (best-of-[reps] with an untimed warmup, like
   bench_matching). *)

open Vod

let n = 16384
let reps = 3

let scenario ~rate ~rounds =
  {
    Serve.Scenario.default with
    Serve.Scenario.name = "bench-serve";
    n;
    u = 2.0;
    d = 4.0;
    c = 2;
    k = 4;
    m = Some 2048;
    mu = 1.5;
    duration = 15;
    rounds;
    seed = 11;
    rate;
    groups = None;
    helpers = [];
    events = [];
  }

(* (best ns, outcome, smallest alloc delta) over [reps] timed runs. *)
let best_of f =
  ignore (f ());
  let best = ref infinity and out = ref None and alloc = ref infinity in
  for _ = 1 to reps do
    let t0 = Meter.now_ns () in
    let b0 = Meter.allocated_bytes () in
    let o = f () in
    let bytes = Meter.allocated_bytes () -. b0 in
    let ns = Meter.now_ns () -. t0 in
    if ns < !best then begin
      best := ns;
      out := Some o
    end;
    if bytes < !alloc then alloc := bytes
  done;
  (!best, Option.get !out, !alloc)

let serve s ~config ~rounds () =
  match Serve.run ~rounds ~config s with
  | Ok o -> o
  | Error e -> failwith ("bench_serve: " ^ e)

let loop_record () =
  let rounds = 30 in
  let s = scenario ~rate:200.0 ~rounds in
  let config = Serve.default_config in
  let ns, o, bytes = best_of (serve s ~config ~rounds) in
  let fr = float_of_int rounds in
  let t = o.Serve.totals in
  {
    Bench_matching.name = "serve/loop/poisson";
    n;
    rounds;
    ns_per_round = ns /. fr;
    matched_per_round = float_of_int t.Serve.admitted /. fr;
    alloc_per_round = bytes /. fr;
  }

let admission_record () =
  let rounds = 30 in
  let s = scenario ~rate:2000.0 ~rounds in
  let config = Serve.config ~queue_cap:512 () in
  let ns, o, bytes = best_of (serve s ~config ~rounds) in
  let t = o.Serve.totals in
  (* every session reaches exactly one of these verdicts, so the sum
     counts admission decisions without double-counting retries *)
  let decisions = t.Serve.admitted + t.Serve.shed + t.Serve.rejected in
  let fd = float_of_int decisions in
  {
    Bench_matching.name = "serve/admission/storm";
    n;
    rounds;
    ns_per_round = ns /. fd;
    matched_per_round = fd /. float_of_int rounds;
    alloc_per_round = bytes /. fd;
  }

let run () = [ loop_record (); admission_record () ]
