(* Chrome trace_event ("Perfetto") JSON writer — complete spans only.

   The output is the JSON object format ({"traceEvents":[...]}) with one
   "X" (complete) event per span: name, ph, ts/dur in microseconds, pid 0
   and tid, loadable in chrome://tracing and ui.perfetto.dev.  Optional
   "M" thread_name metadata rows label the lanes. *)

type span = { name : string; ts_us : float; dur_us : float; tid : int }

let span_json { name; ts_us; dur_us; tid } =
  Printf.sprintf
    "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":0,\"tid\":%d}"
    name ts_us dur_us tid

let thread_name_json (tid, name) =
  Printf.sprintf
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
    tid name

let to_string ?(thread_names = []) spans =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let add s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n";
    Buffer.add_string buf s
  in
  List.iter (fun tn -> add (thread_name_json tn)) thread_names;
  List.iter (fun sp -> add (span_json sp)) spans;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write path ?thread_names spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?thread_names spans))
