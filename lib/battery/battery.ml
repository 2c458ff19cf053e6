module Scenario = Vod_fault.Scenario
module Chaos = Vod_fault.Chaos
module Table = Vod_util.Table
module Json = Vod_json

type cell = {
  scenario : Scenario.t;
  config : Chaos.engine_config;
  kpi : Kpi.values;
  breaches : string list;
  slo : Vod_obs.Slo.summary list;
}

type report = { cells : cell list; breached : int; jsonl : string; table : string }

(* Worst cells first.  Every comparison key is either an exact integer
   or a float computed identically on every platform, and the final
   name keys make the order total — the ranking is part of the
   determinism contract. *)
let rank_compare a b =
  let c = compare (List.length b.breaches) (List.length a.breaches) in
  if c <> 0 then c
  else
    let c = compare b.kpi.Kpi.rejection_rate a.kpi.Kpi.rejection_rate in
    if c <> 0 then c
    else
      let c = compare b.kpi.Kpi.startup_p95 a.kpi.Kpi.startup_p95 in
      if c <> 0 then c
      else
        let c = compare b.kpi.Kpi.sourcing_share a.kpi.Kpi.sourcing_share in
        if c <> 0 then c
        else
          let c = compare a.scenario.Scenario.name b.scenario.Scenario.name in
          if c <> 0 then c else compare a.config.Chaos.label b.config.Chaos.label

let to_jsonl ~configs ~n_scenarios ~breached ranked =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line {|{"type":"meta","version":"vod-scorecard/1","cells":%d,"scenarios":%d,"configs":[%s]}|}
    (List.length ranked) n_scenarios
    (String.concat ","
       (List.map (fun c -> "\"" ^ Json.escape c.Chaos.label ^ "\"") configs));
  List.iteri
    (fun i c ->
      line {|{"type":"cell","rank":%d,"scenario":"%s","config":"%s",%s,"breaches":[%s],"slo":[%s]}|}
        (i + 1)
        (Json.escape c.scenario.Scenario.name)
        (Json.escape c.config.Chaos.label) (Kpi.to_json c.kpi)
        (String.concat "," (List.map (fun b -> "\"" ^ Json.escape b ^ "\"") c.breaches))
        (String.concat "," (List.map Vod_obs.Slo.summary_json c.slo)))
    ranked;
  line {|{"type":"summary","cells":%d,"breached":%d,"ok":%b}|} (List.length ranked) breached
    (breached = 0);
  Buffer.contents buf

let to_table ranked =
  let tbl =
    Table.create
      ~columns:
        [
          ("#", Table.Right);
          ("scenario", Table.Left);
          ("config", Table.Left);
          ("reject", Table.Right);
          ("p95", Table.Right);
          ("ttr", Table.Right);
          ("sourcing", Table.Right);
          ("recovered", Table.Left);
          ("breaches", Table.Left);
          ("slo", Table.Left);
        ]
  in
  let slo_cell slos =
    if slos = [] then "-"
    else
      String.concat " "
        (List.map
           (fun (su : Vod_obs.Slo.summary) ->
             Printf.sprintf "%s:%s" su.Vod_obs.Slo.su_name
               (Vod_obs.Slo.state_name su.Vod_obs.Slo.su_final))
           slos)
  in
  List.iteri
    (fun i c ->
      Table.add_row tbl
        [
          string_of_int (i + 1);
          c.scenario.Scenario.name;
          c.config.Chaos.label;
          Printf.sprintf "%.4f" c.kpi.Kpi.rejection_rate;
          Printf.sprintf "%.2f" c.kpi.Kpi.startup_p95;
          (if c.kpi.Kpi.time_to_repair < 0 then "never"
           else string_of_int c.kpi.Kpi.time_to_repair);
          Printf.sprintf "%.4f" c.kpi.Kpi.sourcing_share;
          (if c.kpi.Kpi.recovered then "yes" else "no");
          (if c.breaches = [] then "-" else String.concat "; " c.breaches);
          slo_cell c.slo;
        ])
    ranked;
  Table.render tbl

let run ?jobs ?wrap_cell ~configs scenarios =
  if configs = [] then Error "battery needs at least one engine config"
  else if scenarios = [] then Error "battery needs at least one scenario"
  else
    let rec validate_all = function
      | [] -> Ok ()
      | s :: rest -> (
          match Chaos.validate s with
          | Ok () -> validate_all rest
          | Error msg -> Error (Printf.sprintf "%s: %s" s.Scenario.name msg))
    in
    match validate_all scenarios with
    | Error _ as err -> err
    | Ok () ->
        (* cells in (scenario, config) row-major order; [Par.map]
           returns results by index, so ranking sees the same cells in
           the same order at any --jobs value *)
        let pairs =
          Array.of_list (List.concat_map (fun s -> List.map (fun c -> (s, c)) configs) scenarios)
        in
        let cell_of i =
          let s, config = pairs.(i) in
          match Chaos.run ~config s with
          | Ok o ->
              let kpi = Kpi.of_outcome o in
              {
                scenario = s;
                config;
                kpi;
                breaches = Kpi.breaches s.Scenario.kpi kpi;
                slo = o.Chaos.slo;
              }
          | Error msg -> failwith msg (* unreachable: validated above *)
        in
        let cells =
          match wrap_cell with
          | None -> Vod_par.Par.map ?jobs ~f:cell_of (Array.length pairs)
          | Some wrap ->
              (* A wrapper (e.g. per-cell span capture, which relies on
                 the process-global recorder) needs cells one at a time:
                 run them sequentially in row-major order, ignoring
                 [jobs].  The scorecard bytes are unaffected either
                 way. *)
              Array.init (Array.length pairs) (fun i ->
                  let s, config = pairs.(i) in
                  wrap ~scenario:s ~config (fun () -> cell_of i))
        in
        let ranked = List.sort rank_compare (Array.to_list cells) in
        let breached = List.length (List.filter (fun c -> c.breaches <> []) ranked) in
        let jsonl =
          to_jsonl ~configs ~n_scenarios:(List.length scenarios) ~breached ranked
        in
        Ok { cells = ranked; breached; jsonl; table = to_table ranked }

let ok r = r.breached = 0
