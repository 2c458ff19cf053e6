(* JSONL export of a recorded trace: one self-describing event per line.

     {"type":"meta","schema":"vod-obs/1","events":N,"dropped_spans":D}
     {"type":"span","id":3,"parent":1,"name":"matching","start_ns":..,"stop_ns":..,"attrs":{"served":"17"}}
     {"type":"counter","name":"hk.augmenting_paths","value":523}
     {"type":"gauge","name":"engine.active_requests","value":12}
     {"type":"hist","name":"hk.path_length","count":10,"sum":42,"buckets":[[0,3],[1,7]]}

   The span lines come first (completion order), then a snapshot of the
   metrics registry, so a consumer can stream-process spans and still
   find the aggregate counters at the end.  The format is validated and
   summarised by {!Report} (and `vodctl obs-report`). *)

module Json = Vod_json

let schema = "vod-obs/1"

(* [dropped_spans] (not the older [dropped]) so ring eviction is named
   for what it is; Report accepts both keys when parsing. *)
let meta_line ~events ~dropped =
  Printf.sprintf "{\"type\":\"meta\",\"schema\":\"%s\",\"events\":%d,\"dropped_spans\":%d}" schema
    events dropped

let span_line (e : Span.event) =
  let attrs =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)) e.Span.attrs)
  in
  Printf.sprintf
    "{\"type\":\"span\",\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%d,\"stop_ns\":%d,\"attrs\":{%s}}"
    e.Span.id e.Span.parent (Json.escape e.Span.name) e.Span.start_ns e.Span.stop_ns attrs

let counter_line name value =
  Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}" (Json.escape name) value

let gauge_line name value =
  Printf.sprintf "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%d}" (Json.escape name) value

let hist_line name (h : Registry.hist_snapshot) =
  Printf.sprintf "{\"type\":\"hist\",\"name\":\"%s\",\"count\":%d,\"sum\":%d,\"buckets\":[%s]}"
    (Json.escape name) h.Registry.count h.Registry.sum
    (String.concat "," (List.map (fun (e, c) -> Printf.sprintf "[%d,%d]" e c) h.Registry.buckets))

let to_jsonl ?registry recorder =
  let buf = Buffer.create 4096 in
  let line l =
    Buffer.add_string buf l;
    Buffer.add_char buf '\n'
  in
  line (meta_line ~events:(Span.recorded recorder) ~dropped:(Span.dropped recorder));
  List.iter (fun e -> line (span_line e)) (Span.events recorder);
  (match registry with
  | None -> ()
  | Some reg ->
      let s = Registry.snapshot reg in
      List.iter (fun (n, v) -> line (counter_line n v)) s.Registry.s_counters;
      List.iter (fun (n, v) -> line (gauge_line n v)) s.Registry.s_gauges;
      List.iter (fun (n, h) -> line (hist_line n h)) s.Registry.s_histograms);
  Buffer.contents buf

let save ?registry recorder ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl ?registry recorder))
