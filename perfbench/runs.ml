(* One repetition of a workload, in two flavours:

   - timed: host clock and allocation counters only, no recorder
     installed (the engine's own spans then cost a ref read);
   - checked: the same simulation with every correctness check run
     after each round, outside any timed region.  With [probe] the
     checked run also times [Bipartite.solve] and, on failing rounds,
     [Bipartite.hall_violator] on its snapshot of the round's instance.

   Every repetition of a workload simulates the same fixed window of
   rounds, so the host's speed changes only the times, never the work.
   Every flavour returns the simulated outcome as a digest, so the
   caller can demand that repetitions at one seed agree exactly. *)

open Vod
module W = Workloads

let now = Unix.gettimeofday
let span = W.span

(* ---------------- engine workloads ---------------- *)

type probes = {
  mutable solve_s : float;  (** [Bipartite.solve] on each snapshot. *)
  mutable solves : int;
  mutable hall_s : float;  (** [Bipartite.hall_violator] on failing rounds. *)
  mutable halls : int;
  mutable edges : int;
  mutable lefts : int;
}

type engine_run = {
  round_s : float array;  (** Every steady round: demand feed plus [Engine.step]. *)
  step_s : float array;  (** Every steady round: [Engine.step] alone. *)
  step_bytes : float array;  (** Every steady round: bytes [Engine.step] allocated. *)
  round_bytes : float;  (** Steady rounds: bytes allocated by feed plus step. *)
  served : int;  (** Viewer stripe-request-rounds served. *)
  unserved : int;  (** ... and stalled. *)
  active_mean : float;
  probes : probes;  (** Filled by a probed checked run. *)
  startup_p95 : float;
  sim_digest : string;
  errors : string list;
}

let p95_int a =
  if Array.length a = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    let r = int_of_float (ceil (0.95 *. float_of_int (Array.length s))) in
    float_of_int s.(max 0 (r - 1))
  end

let timed f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  now () -. t0

(* The independent audit of one engine round: a Hopcroft-Karp solve of
   the round's instance must match the engine's served count, and a
   failing round's Hall certificate must be tight against that solve. *)
let check_round e (r : Engine.round_report) ~probes =
  match Engine.last_instance e with
  | None -> Some (Printf.sprintf "round %d: no instance" r.time)
  | Some inst -> (
      let ci = Check.Instance.of_bipartite inst in
      Option.iter
        (fun p ->
          let snap = Check.Instance.to_bipartite ci in
          p.solve_s <- p.solve_s +. timed (fun () -> Bipartite.solve snap);
          p.solves <- p.solves + 1;
          if r.unserved > 0 then begin
            p.hall_s <- p.hall_s +. timed (fun () -> Bipartite.hall_violator snap);
            p.halls <- p.halls + 1
          end;
          p.edges <- p.edges + Check.Instance.edge_count ci;
          p.lefts <- p.lefts + ci.n_left)
        probes;
      let hk =
        Hopcroft_karp.solve ~n_left:ci.n_left ~n_right:ci.n_right ~adj:ci.adj
          ~right_cap:ci.right_cap ()
      in
      let engine_matched = r.served + r.faulted + r.repair_served in
      if hk.size <> engine_matched then
        Some
          (Printf.sprintf "round %d: engine matched %d, Hopcroft-Karp %d" r.time
             engine_matched hk.size)
      else if r.unserved = 0 then None
      else
        match Engine.last_violator e with
        | None ->
            Some (Printf.sprintf "round %d: failing round without a certificate" r.time)
        | Some v -> (
            let outcome =
              {
                Bipartite.matched = hk.size;
                assignment = hk.assignment;
                right_load = hk.right_load;
              }
            in
            match Check.Certificate.check_optimal_pair ci outcome v with
            | Ok () -> None
            | Error msg -> Some (Printf.sprintf "round %d: certificate: %s" r.time msg)))

(* One repetition: the build, T warm-up rounds, then [w.steady] timed
   rounds.  Each round is the demand feed plus [Engine.step], whose own
   "round" span is the engine layer in a traced run. *)
let run_engine ?(probe = false) (w : W.engine_spec) ~seed ~check =
  let e = W.engine_setup w ~seed in
  let feed = W.zipf_feed w ~seed in
  let warm = w.duration in
  let fixed = warm + w.steady in
  let round_s = ref [] and step_s = ref [] and step_bytes = ref [] in
  let round_bytes = ref 0.0 in
  let served = ref 0 and unserved = ref 0 and active = ref 0 in
  let probes =
    { solve_s = 0.0; solves = 0; hall_s = 0.0; halls = 0; edges = 0; lefts = 0 }
  in
  let sim = Buffer.create 8192 in
  let errors = ref [] in
  for i = 1 to fixed do
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    let wanted = span "workload.gen" (fun () -> feed e (Engine.now e + 1)) in
    span "engine.try_demand" (fun () ->
        List.iter
          (fun (box, video) -> ignore (Engine.try_demand e ~box ~video : Engine.admit))
          wanted);
    let a2 = Gc.allocated_bytes () in
    let t2 = now () in
    let r = Engine.step e in
    let t3 = now () in
    let a3 = Gc.allocated_bytes () in
    if i > warm then begin
      round_s := (t3 -. t0) :: !round_s;
      step_s := (t3 -. t2) :: !step_s;
      step_bytes := (a3 -. a2) :: !step_bytes;
      round_bytes := !round_bytes +. (a3 -. a0);
      served := !served + r.served;
      unserved := !unserved + r.unserved;
      active := !active + r.active_requests
    end;
    Printf.bprintf sim "%d %d %d %d %d %d\n" r.time r.new_demands r.active_requests
      r.served r.unserved r.served_from_cache;
    if check then begin
      let probes = if probe && i > warm then Some probes else None in
      Option.iter (fun m -> errors := m :: !errors) (check_round e r ~probes)
    end
  done;
  let delays = Engine.startup_delays e in
  Array.iter (fun d -> Printf.bprintf sim "s%d\n" d) delays;
  let arr l = Array.of_list (List.rev l) in
  {
    round_s = arr !round_s;
    step_s = arr !step_s;
    step_bytes = arr !step_bytes;
    round_bytes = !round_bytes;
    served = !served;
    unserved = !unserved;
    active_mean = float_of_int !active /. float_of_int w.steady;
    probes;
    startup_p95 = p95_int delays;
    sim_digest = Digest.to_hex (Digest.string (Buffer.contents sim));
    errors = List.rev !errors;
  }

(* ---------------- serve workloads ---------------- *)

let serve (w : W.serve_spec) ~seed ~rounds =
  let run () =
    Serve.run ~rounds ~seed ~config:w.config ~arrivals:w.arrivals (w.scenario seed)
  in
  match span "serve.run" run with Ok o -> o | Error e -> failwith ("Serve.run: " ^ e)

(* The service contract every run must keep: the graceful-degradation
   verdict, session conservation and bounded retries. *)
let check_outcome (o : Serve.outcome) ~rounds =
  let t = o.totals in
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some msg)
    [
      ( Serve.verdict_ok o,
        Printf.sprintf "verdict: %d stalled request-rounds over %d rounds, %d retries"
          t.total_unserved t.stalled_rounds t.retries );
      ( t.arrivals = t.completed + t.shed + t.rejected + o.live_at_end,
        Printf.sprintf
          "conservation: arrivals %d <> completed %d + shed %d + rejected %d + live %d"
          t.arrivals t.completed t.shed t.rejected o.live_at_end );
      ( t.retries <= t.retry_budget * t.retry_sessions,
        Printf.sprintf "retries %d > budget %d x sessions %d" t.retries t.retry_budget
          t.retry_sessions );
      (o.rounds = rounds, Printf.sprintf "ran %d rounds, asked %d" o.rounds rounds);
    ]

type timed_serve = { wall_s : float; bytes : float; outcome : Serve.outcome }

let timed_serve w ~seed ~rounds =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let outcome = serve w ~seed ~rounds in
  let wall_s = now () -. t0 in
  { wall_s; bytes = Gc.allocated_bytes () -. a0; outcome }

(* The engine's own "round" spans, in round order. *)
let round_spans events =
  List.filter (fun (ev : Obs.Span.event) -> ev.name = "round") events |> Array.of_list

(* Per-round host time of the steady service rounds, read from the start
   of one engine round span to the start of the next: the whole loop
   iteration, engine round and service work between rounds alike.
   [Serve.run] exposes no other per-round boundary. *)
let service_round_times rounds ~warmup =
  let n = Array.length rounds in
  Array.init
    (max 0 (n - 1 - warmup))
    (fun i ->
      let a = rounds.(warmup + i) and b = rounds.(warmup + i + 1) in
      float_of_int (b.Obs.Span.start_ns - a.Obs.Span.start_ns) /. 1e9)

(* A recorder sized to a run of [rounds] rounds; [dropped] counts the
   spans it had no room for. *)
type recording = { events : Obs.Span.event list; dropped : int }

let spans_per_round = 64

let with_recorder ~rounds f =
  let r = Obs.Span.create_recorder ~capacity:(spans_per_round * (rounds + 1)) () in
  Obs.Span.install r;
  Fun.protect ~finally:Obs.Span.uninstall (fun () ->
      let x = f () in
      (x, { events = Obs.Span.events r; dropped = Obs.Span.dropped r }))

(* Mean served + unserved viewer requests per steady round, read from
   the [vod-serve/1] round lines. *)
let serve_active_mean (o : Serve.outcome) ~warmup =
  let field line key =
    let pat = "\"" ^ key ^ "\":" in
    let pl = String.length pat and ll = String.length line in
    let rec find i =
      if i + pl > ll then 0
      else if String.sub line i pl = pat then begin
        let j = ref (i + pl) in
        while !j < ll && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
        int_of_string (String.sub line (i + pl) (!j - i - pl))
      end
      else find (i + 1)
    in
    find 0
  in
  let total = ref 0 and count = ref 0 in
  List.iter
    (fun line ->
      if String.length line > 15 && String.sub line 0 15 = "{\"type\":\"round\"" then
        if field line "t" > warmup then begin
          total := !total + field line "served" + field line "unserved";
          incr count
        end)
    (String.split_on_char '\n' o.jsonl);
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count
