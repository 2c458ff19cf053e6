(* The benchmark's workloads and the inputs each one derives from a seed.

   Two families, one per unit of cost the system has:

   - engine workloads drive a bare Engine (the [vodctl simulate] path):
     a homogeneous fleet, a random-permutation allocation and Zipf
     arrivals, fed round by round through [Engine.try_demand] and
     [Engine.step];
   - serve workloads run the whole service loop ([Serve.run]) on a
     scenario generated from the seed.

   The seed picks the allocation, the arrival stream and, for the storm,
   which topology group fails.
   The program receives only these generated inputs. *)

open Vod

type engine_spec = {
  n : int;
  u : float;
  d : float;
  c : int;
  k : int;
  m : int;
  mu : float;
  duration : int;  (** T: the cache window, and the warm-up excluded from timing. *)
  rate : float;  (** Poisson arrivals per round. *)
  zipf_s : float;
  steady : int;  (** Rounds after the warm-up that are timed, checked and digested. *)
}

type serve_spec = {
  scenario : int -> Serve.Scenario.t;  (** From the seed. *)
  config : Serve.config;
  arrivals : Serve.arrivals;
  rounds : int;  (** Total rounds per run, warm-up included. *)
  warmup : int;  (** T: leading rounds excluded from the per-round metrics. *)
}

type kind = Engine_w of engine_spec | Serve_w of serve_spec
type t = { name : string; kind : kind }

let names = [ "serve-steady"; "serve-storm"; "engine-swarm"; "engine-below-threshold" ]

(* Scenario text in the [.scn] format, so the serve workloads go through
   the same parser and validation as [vodctl serve --scn]. *)
let scenario_text ~name ~n ~m ~duration ~rounds ~seed ~rate ~extra =
  let text =
    Printf.sprintf
      "n %d\n\
       u 2.0\n\
       d 4.0\n\
       c 2\n\
       k 4\n\
       m %d\n\
       mu 1.5\n\
       duration %d\n\
       rounds %d\n\
       seed %d\n\
       rate %g\n\
       %s"
      n m duration rounds seed rate (String.concat "\n" extra)
  in
  match Serve.Scenario.parse ~name text with Ok s -> s | Error e -> failwith e

let serve_steady ~smoke =
  let n, m, duration, rounds, rate =
    if smoke then (512, 64, 6, 24, 8.0) else (16384, 2048, 15, 120, 200.0)
  in
  let scenario seed =
    scenario_text ~name:"serve-steady" ~n ~m ~duration ~rounds ~seed ~rate ~extra:[]
  in
  Serve_w
    {
      scenario;
      config = Serve.default_config;
      arrivals = Serve.Poisson rate;
      rounds;
      warmup = duration;
    }

(* Arrivals about five times what admission can take, a standby helper
   fleet, then a group outage long enough that the repair controller's
   transfers run through it.  The storm has no flash crowds: at this
   scale a crowd large enough to matter makes Serve.run stall admitted
   sessions on some seeds, which fails the service verdict (see
   perfbench/README.md, Known limits). *)
let serve_storm ~smoke =
  let n, m, duration, rounds, rate, queue_cap =
    if smoke then (512, 256, 6, 30, 150.0, 64) else (4096, 2048, 15, 200, 1200.0, 512)
  in
  let scenario seed =
    let g = Prng.create ~seed:(seed + 3) () in
    let group = Prng.int g 8 in
    let at percent = max 1 (rounds * percent / 100) in
    let extra =
      [
        "groups 8";
        "target_k 3";
        "budget 16";
        Printf.sprintf "helpers %d 2.0 1.0" (n / 64);
        Printf.sprintf "at %d helper-join 0" (at 15);
        Printf.sprintf "at %d group-crash %d" (at 40) group;
        Printf.sprintf "at %d group-rejoin %d" (at 80) group;
      ]
    in
    scenario_text ~name:"serve-storm" ~n ~m ~duration ~rounds ~seed ~rate ~extra
  in
  Serve_w
    {
      scenario;
      config = Serve.config ~queue_cap ();
      arrivals = Serve.Poisson rate;
      rounds;
      warmup = duration;
    }

let engine_spec ~n ~u ~duration ~rate ~steady =
  {
    n;
    u;
    d = 4.0;
    c = 4;
    k = 4;
    m = n / 4;
    mu = 1.5;
    duration;
    rate;
    zipf_s = 0.8;
    steady;
  }

let engine_swarm ~smoke =
  if smoke then engine_spec ~n:256 ~u:2.0 ~duration:6 ~rate:4.0 ~steady:20
  else engine_spec ~n:8192 ~u:2.0 ~duration:30 ~rate:100.0 ~steady:100

(* u = 0.75 is below the threshold u* = 1: rounds fail and every failing
   round extracts a Hall certificate, a path no other workload runs. *)
let engine_below ~smoke =
  if smoke then engine_spec ~n:256 ~u:0.75 ~duration:6 ~rate:40.0 ~steady:20
  else engine_spec ~n:4096 ~u:0.75 ~duration:30 ~rate:50.0 ~steady:60

let find ~smoke name =
  let kind =
    match name with
    | "serve-steady" -> Some (serve_steady ~smoke)
    | "serve-storm" -> Some (serve_storm ~smoke)
    | "engine-swarm" -> Some (Engine_w (engine_swarm ~smoke))
    | "engine-below-threshold" -> Some (Engine_w (engine_below ~smoke))
    | _ -> None
  in
  Option.map (fun kind -> { name; kind }) kind

(* ---- system construction: the public build calls, one span each ---- *)

let span name f = Obs.Span.with_ ~name f

(* Per-call host time of the most recent set-up, by span name, so the
   set-up repetitions can report each layer's share. *)
let last_parts : (string * float) list ref = ref []

let part name f =
  let t0 = Unix.gettimeofday () in
  let x = span name f in
  last_parts := (name, Unix.gettimeofday () -. t0) :: !last_parts;
  x

let engine_setup (w : engine_spec) ~seed =
  last_parts := [];
  let fleet = Box.Fleet.homogeneous ~n:w.n ~u:w.u ~d:w.d in
  let params = Params.make ~n:w.n ~c:w.c ~mu:w.mu ~duration:w.duration in
  let catalog = Catalog.create ~m:w.m ~c:w.c in
  let alloc =
    part "alloc.permutation" (fun () ->
        Schemes.random_permutation (Prng.create ~seed ()) ~fleet ~catalog ~k:w.k)
  in
  part "engine.create" (fun () ->
      Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue
        ~scheduler:Engine.Arbitrary ())

let zipf_feed (w : engine_spec) ~seed =
  Generators.zipf_arrivals (Prng.create ~seed:(seed + 7) ()) ~rate:w.rate ~s:w.zipf_s

(* The build [Serve.run] performs before its first round, made through
   the same public calls; [Serve.run] does not expose its own. *)
let serve_setup (s : Serve.Scenario.t) ~seed =
  last_parts := [];
  match part "fault.prepare" (fun () -> Fault.Chaos.prepare s) with
  | Error e -> failwith e
  | Ok (base, fleet, m, topology, _) ->
      let params =
        Params.make ~n:(Array.length fleet) ~c:s.c ~mu:s.mu ~duration:s.duration
      in
      let catalog = Catalog.create ~m ~c:s.c in
      let alloc =
        part "alloc.permutation" (fun () ->
            let base_alloc =
              Schemes.random_permutation (Prng.create ~seed ()) ~fleet:base ~catalog
                ~k:s.k
            in
            if s.helpers = [] then base_alloc
            else Fault.Helpers.seed_allocation ~fleet ~c:s.c base_alloc)
      in
      let engine =
        part "engine.create" (fun () ->
            Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue ?topology ())
      in
      let mend =
        part "fault.mend_create" (fun () ->
            Fault.Mend.create ~seed:(seed + 101) (Fault.Mend.of_scenario s))
      in
      (engine, mend)

(* A digest of what the seed generates, for the self-test that a
   different seed gives different inputs.  It covers generated content
   only: the allocation, the first rounds of demand and, for a serve
   workload, the scenario without its seed line and the round lines of a
   short run, which carry the Poisson arrival counts. *)
let inputs_digest t ~seed =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let alloc_text alloc =
    String.concat ";"
      (List.init (Allocation.n_boxes alloc) (fun b ->
           ints (Allocation.stripes_of_box alloc b)))
  in
  let lines_without prefix text =
    List.filter
      (fun l -> not (String.starts_with ~prefix l))
      (String.split_on_char '\n' text)
  in
  let text =
    match t.kind with
    | Engine_w w ->
        let e = engine_setup w ~seed in
        let feed = zipf_feed w ~seed in
        let demands =
          List.concat_map
            (fun round ->
              List.map (fun (b, v) -> Printf.sprintf "%d:%d" b v) (feed e round))
            [ 1; 2; 3 ]
        in
        alloc_text (Engine.alloc e) ^ String.concat "," demands
    | Serve_w w ->
        let s = w.scenario seed in
        let e, _ = serve_setup s ~seed in
        let rounds =
          match Serve.run ~rounds:3 ~seed ~config:w.config ~arrivals:w.arrivals s with
          | Ok o ->
              List.filter
                (String.starts_with ~prefix:"{\"type\":\"round\"")
                (String.split_on_char '\n' o.jsonl)
          | Error e -> failwith e
        in
        String.concat "\n"
          (lines_without "seed " (Serve.Scenario.to_text s)
          @ [ alloc_text (Engine.alloc e) ]
          @ rounds)
  in
  Digest.to_hex (Digest.string text)
