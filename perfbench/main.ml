(* perfbench: the repository benchmark.  One run measures one workload:

     main.exe --workload NAME --seed S --seconds T --trace 0|1
              [--quick] [--trace-dir DIR]

   Set-up runs three times (setup_s is their median) and the last set-up
   is measured: ops run back to back, closed loop, until T seconds have
   passed.  The end-of-run cross-checks decide [correct].  With --trace 1
   the run is split: an untraced pass for T/2 seconds, then a traced pass
   (spans recorded around the benchmark's own calls into each library,
   live metrics registries) over the same ops, whose deterministic
   counters must equal the untraced pass's; it prints the per-layer
   metrics and, with --trace-dir, writes DIR/NAME.trace.json (Chrome
   trace_event format).  --quick runs a fixed handful of ops at tiny
   sizes.

   The last line of standard output is the result as one JSON object;
   the exit code is 1 when a cross-check failed, 2 on a usage error.
   perfbench/run.py builds this program and is the command the
   benchmark is run with; perfbench/README.md describes the workloads
   and metrics. *)

open Common

let workloads =
  [ Converge_wl.workload; Recover_wl.workload; Vanet_wl.workload; Fuzz_wl.workload ]

let end_to_end =
  [ ("setup_s", "s"); ("op_ms_p50", "ms"); ("node_rounds_per_s", "1/s"); ("live_heap_mb", "MB") ]

let per_layer =
  [
    ("core.compute_us_per_node_round", "us");
    ("core.compute_us_per_call", "us");
    ("core.fold_us_per_call", "us");
    ("core.fold_cache_hit_ratio", "ratio");
    ("core.ant_merges_per_compute", "count");
    ("core.restrict_clear_per_compute", "count");
    ("core.view_removes_per_knr", "count");
    ("core.view_adds_per_knr", "count");
    ("core.contest_wins_per_knr", "count");
    ("core.quarantine_enters_per_knr", "count");
    ("core.gate_convictions_per_knr", "count");
    ("sim.messages_per_node_round", "count");
    ("sim.runner_self_us_per_node_round", "us");
    ("sim.broadcast_us_per_node_round", "us");
    ("sim.delivery_us_per_node_round", "us");
    ("sim.set_graph_us_per_node_round", "us");
    ("sim.quiescence_check_us_per_node_round", "us");
    ("sim.engine_fires_per_node_round", "count");
    ("graph.build_us_per_node_round", "us");
    ("mobility.step_us_per_node_round", "us");
    ("spec.poll_us_per_node_round", "us");
    ("spec.dirtied_per_poll", "count");
    ("gc.minor_words_per_node_round", "words");
    ("gc.major_words_per_node_round", "words");
    ("verdict.stabilize_rounds_p50", "rounds");
    ("verdict.legitimate_share", "ratio");
    ("verdict.unjustified_evictions_per_knr", "count");
    ("verdict.open_findings_per_kop", "count");
    ("trace_overhead", "ratio");
  ]

let setup_runs = 3

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed S --seconds T --trace 0|1 [--quick] [--trace-dir DIR]";
  exit 2

(* Three timed set-ups; the last one is kept.  A full major collection
   between them keeps only one set-up alive at a time. *)
let set_up (w : workload) ~quick ~seed =
  let rec go k times =
    let t0 = now () in
    let pass = w.setup ~traced:false ~quick ~seed ~spans:spans_off in
    let times = (now () -. t0) :: times in
    if k = 1 then (pass, times)
    else begin
      Gc.full_major ();
      go (k - 1) times
    end
  in
  go setup_runs []

(* Live major heap after a full collection. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Ops back to back: exactly [count] of them, or until [seconds] passed.
   Also returns the live heap once [heap_after] ops are done (or at the
   end, if fewer ran). *)
let run_ops pass ~count ~seconds ~heap_after =
  let t_end = now () +. seconds in
  let heap = ref None in
  let rec go i acc =
    let more = match count with Some k -> i < k | None -> i = 0 || now () < t_end in
    if more then begin
      let o = pass.op i in
      if i + 1 = heap_after then heap := Some (live_heap_mb ());
      go (i + 1) (o :: acc)
    end
    else List.rev acc
  in
  let ops = go 0 [] in
  (ops, match !heap with Some h -> h | None -> live_heap_mb ())

let op_ms ops = 1000.0 *. median (List.map (fun o -> o.wall_s) ops)

let json_number x =
  let x = if Float.is_finite x then x else 0.0 in
  Printf.sprintf "%.17g" x

let print_result ~correct ~ops metrics =
  let failed = List.length (List.filter (fun o -> o.failed) ops) in
  List.iter (fun (name, unit, v) -> Printf.printf "  %-40s %14.4f %s\n" name v unit) metrics;
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (List.length ops) failed (String.concat ", " fields)

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let quick = ref false and trace_dir = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := List.find_opt (fun w -> w.name = v) workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--trace-dir" :: v :: rest ->
        trace_dir := Some v;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w, seed, seconds, traced =
    match (!workload, !seed, !seconds, !trace) with
    | Some w, Some s, Some t, Some tr -> (w, s, t, tr)
    | _ -> usage ()
  in
  let quick = !quick in
  let count = if quick then Some w.fixed_ops else None in
  let pass, setup_times = set_up w ~quick ~seed in
  let gc0 = Gc.quick_stat () in
  let ops, live_heap =
    run_ops pass ~count ~seconds:(if traced then seconds /. 2.0 else seconds)
      ~heap_after:w.fixed_ops
  in
  let gc1 = Gc.quick_stat () in
  let counters = pass.counters () in
  let problems = pass.check () in
  Printf.printf "perfbench %s seed %d%s: %s\n" w.name seed
    (if traced then " traced" else "")
    (pass.summary ());
  let problems, result_ops, metrics =
    if not traced then begin
      let rate o = float_of_int o.node_rounds /. o.wall_s in
      let values =
        [
          ("setup_s", median setup_times);
          ("op_ms_p50", op_ms ops);
          ("node_rounds_per_s", median (List.map rate ops));
          ("live_heap_mb", live_heap);
        ]
      in
      ( problems,
        ops,
        List.map (fun (name, unit) -> (name, unit, List.assoc name values)) end_to_end )
    end
    else begin
      (* The traced pass: a fresh set-up, the same ops. *)
      let spans = spans_create () in
      let traced_pass = w.setup ~traced:true ~quick ~seed ~spans in
      spans_reset spans;
      let traced_ops, _ =
        run_ops traced_pass ~count:(Some (List.length ops)) ~seconds ~heap_after:0
      in
      Option.iter
        (fun dir ->
          let path = Filename.concat dir (w.name ^ ".trace.json") in
          write_spans spans path;
          Printf.printf "  chrome trace written to %s\n" path)
        !trace_dir;
      let node_rounds = float_of_int (List.fold_left (fun a o -> a + o.node_rounds) 0 ops) in
      let gc_words f = ratio (f gc1 -. f gc0) node_rounds in
      let values =
        traced_pass.layers ()
        @ [
            ("gc.minor_words_per_node_round", gc_words (fun g -> g.Gc.minor_words));
            ("gc.major_words_per_node_round", gc_words (fun g -> g.Gc.major_words));
            ("trace_overhead", ratio (op_ms traced_ops) (op_ms ops));
          ]
      in
      let unknown = List.filter (fun (name, _) -> not (List.mem_assoc name per_layer)) values in
      ( problems @ traced_pass.check ()
        @ (if traced_pass.counters () = counters then []
           else [ "traced and untraced passes disagree on deterministic counters" ])
        @ List.map (fun (name, _) -> "unknown per-layer metric " ^ name) unknown,
        traced_ops,
        List.map
          (fun (name, unit) -> (name, unit, Option.value ~default:0.0 (List.assoc_opt name values)))
          per_layer )
    end
  in
  List.iter (Printf.printf "  cross-check failed: %s\n") problems;
  print_result ~correct:(problems = []) ~ops:result_ops metrics;
  exit (if problems = [] then 0 else 1)
