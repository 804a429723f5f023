(* Unit tests for the metrics registry: the null no-op discipline, handle
   interning, snapshots, the deterministic merge, both export formats and
   the JSON round-trip — plus the doc vocabulary diff that keeps the
   docs/OBSERVABILITY.md metric-family table in sync with Names.all. *)

module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- disabled path --- *)

let test_null_noop () =
  check "null is disabled" false (Registry.enabled Registry.null);
  check "create is enabled" true (Registry.enabled (Registry.create ()));
  let c = Registry.counter Registry.null "grp_compute_total" in
  Registry.Counter.incr c;
  Registry.Counter.add c 41;
  check_int "disabled counter stays 0" 0 (Registry.Counter.value c);
  let g = Registry.gauge Registry.null "medium_loss_rate" in
  Registry.Gauge.set g 0.5;
  check "disabled gauge stays 0" true (Registry.Gauge.value g = 0.0);
  let tm = Registry.timer Registry.null "grp_compute_ns" in
  let tok = Registry.Timer.start tm in
  check "disabled start reads no clock" true (tok = 0.0);
  Registry.Timer.stop tm tok;
  check "disabled lap reads no clock" true (Registry.Timer.lap tm tok = 0.0);
  check_int "disabled timer records nothing" 0 (Registry.Timer.count tm);
  let h = Registry.histogram Registry.null "grp_view_size" in
  Registry.Hist.observe_int h 3;
  check_int "disabled hist records nothing" 0 (Registry.Hist.count h);
  let s = Registry.snapshot Registry.null in
  check "null snapshot is empty" true
    (s.Registry.counters = [] && s.Registry.gauges = []
    && s.Registry.timers = [] && s.Registry.histograms = [])

(* --- live handles --- *)

let test_interning () =
  let reg = Registry.create () in
  let a = Registry.counter reg "grp_compute_total" in
  let b = Registry.counter reg "grp_compute_total" in
  check "same name, same handle" true (a == b);
  Registry.Counter.incr a;
  Registry.Counter.add b 2;
  check_int "both sites accumulate into one series" 3 (Registry.Counter.value a)

let test_counter_gauge () =
  let reg = Registry.create () in
  let c = Registry.counter reg "x_total" in
  Registry.Counter.incr c;
  Registry.Counter.incr c;
  Registry.Counter.add c 5;
  check_int "counter value" 7 (Registry.Counter.value c);
  let g = Registry.gauge reg "rate" in
  Registry.Gauge.set g 0.25;
  Registry.Gauge.set g 0.75;
  check "gauge keeps last write" true (Registry.Gauge.value g = 0.75)

let test_timer () =
  let reg = Registry.create () in
  let tm = Registry.timer reg "work_ns" in
  let r = Registry.Timer.time tm (fun () -> 1 + 1) in
  check_int "time returns the result" 2 r;
  let tok = Registry.Timer.start tm in
  Registry.Timer.stop tm tok;
  check_int "two spans" 2 (Registry.Timer.count tm);
  check "total is non-negative" true (Registry.Timer.total_ns tm >= 0.0);
  (* time must record the span also when f raises *)
  (try Registry.Timer.time tm (fun () -> failwith "boom") with Failure _ -> ());
  check_int "span recorded on exception" 3 (Registry.Timer.count tm)

let test_histogram () =
  let reg = Registry.create () in
  let h = Registry.histogram ~bin_width:2.0 reg "sizes" in
  List.iter (Registry.Hist.observe_int h) [ 1; 2; 3; 7 ];
  check_int "count" 4 (Registry.Hist.count h);
  let s = Registry.snapshot reg in
  (match List.assoc_opt "sizes" s.Registry.histograms with
  | Some (w, bins) ->
      check "bin width kept" true (w = 2.0);
      Alcotest.(check (list (pair (float 1e-9) int)))
        "bins" [ (0.0, 1); (2.0, 2); (6.0, 1) ] bins
  | None -> Alcotest.fail "histogram missing from snapshot");
  (* re-registering with the same width is fine, another width is not *)
  ignore (Registry.histogram ~bin_width:2.0 reg "sizes");
  match Registry.histogram ~bin_width:0.5 reg "sizes" with
  | _ -> Alcotest.fail "expected Invalid_argument on width conflict"
  | exception Invalid_argument _ -> ()

let test_labelled () =
  check_str "labels sorted by key" "experiment_ns{id=\"e3\",rep=\"2\"}"
    (Registry.labelled "experiment_ns" [ ("rep", "2"); ("id", "e3") ]);
  check_str "no labels, bare name" "experiment_ns"
    (Registry.labelled "experiment_ns" [])

(* --- snapshots and merge --- *)

let test_snapshot_sorted_and_header () =
  let reg = Registry.create () in
  Registry.Counter.incr (Registry.counter reg "b_total");
  Registry.Counter.incr (Registry.counter reg "a_total");
  ignore (Registry.counter reg "c_total");
  let s = Registry.snapshot ~jobs:4 reg in
  Alcotest.(check (list (pair string int)))
    "counters sorted, untouched handles present at 0"
    [ ("a_total", 1); ("b_total", 1); ("c_total", 0) ]
    s.Registry.counters;
  check_int "cores is the host's domain count"
    (Domain.recommended_domain_count ())
    s.Registry.cores;
  check "jobs recorded" true (s.Registry.jobs = Some 4);
  check "jobs defaults to None" true
    ((Registry.snapshot reg).Registry.jobs = None)

let make_snap ~jobs f =
  let reg = Registry.create () in
  f reg;
  Registry.snapshot ?jobs reg

let test_merge () =
  let s1 =
    make_snap ~jobs:(Some 2) (fun reg ->
        Registry.Counter.add (Registry.counter reg "a_total") 3;
        Registry.Gauge.set (Registry.gauge reg "g") 0.5;
        Registry.Hist.observe_int (Registry.histogram reg "h") 1;
        Registry.Timer.time (Registry.timer reg "t_ns") (fun () -> ()))
  in
  let s2 =
    make_snap ~jobs:None (fun reg ->
        Registry.Counter.add (Registry.counter reg "a_total") 4;
        Registry.Counter.incr (Registry.counter reg "b_total");
        Registry.Gauge.set (Registry.gauge reg "g") 0.25;
        Registry.Hist.observe_int (Registry.histogram reg "h") 1;
        Registry.Hist.observe_int (Registry.histogram reg "h") 9)
  in
  let m = Registry.merge [ s1; s2 ] in
  Alcotest.(check (list (pair string int)))
    "counters summed"
    [ ("a_total", 7); ("b_total", 1) ]
    m.Registry.counters;
  check "gauges take max" true (List.assoc "g" m.Registry.gauges = 0.5);
  (match List.assoc_opt "h" m.Registry.histograms with
  | Some (_, bins) ->
      Alcotest.(check (list (pair (float 1e-9) int)))
        "hist bins summed" [ (1.0, 2); (9.0, 1) ] bins
  | None -> Alcotest.fail "merged histogram missing");
  (match List.assoc_opt "t_ns" m.Registry.timers with
  | Some st -> check_int "timer spans summed" 1 st.Registry.spans
  | None -> Alcotest.fail "merged timer missing");
  check "jobs takes first Some" true (m.Registry.jobs = Some 2);
  let empty = Registry.merge [] in
  check "merge [] is empty" true (empty.Registry.counters = []);
  (* width conflict *)
  let w1 = make_snap ~jobs:None (fun reg ->
      Registry.Hist.observe (Registry.histogram ~bin_width:1.0 reg "h") 0.0)
  in
  let w2 = make_snap ~jobs:None (fun reg ->
      Registry.Hist.observe (Registry.histogram ~bin_width:2.0 reg "h") 0.0)
  in
  match Registry.merge [ w1; w2 ] with
  | _ -> Alcotest.fail "expected Invalid_argument on bin-width conflict"
  | exception Invalid_argument _ -> ()

let test_merge_partition_independent () =
  (* The --jobs determinism contract in miniature: summing per-part
     snapshots gives the same counters for any partition of the work. *)
  let work = List.init 30 (fun i -> i) in
  let snap_of part =
    make_snap ~jobs:None (fun reg ->
        let c = Registry.counter reg "a_total" in
        let h = Registry.histogram reg "h" in
        List.iter
          (fun i ->
            Registry.Counter.add c i;
            Registry.Hist.observe_int h (i mod 5))
          part)
  in
  let split_at n l =
    List.filteri (fun i _ -> i < n) l, List.filteri (fun i _ -> i >= n) l
  in
  let whole = Registry.merge [ snap_of work ] in
  List.iter
    (fun n ->
      let a, b = split_at n work in
      let m = Registry.merge [ snap_of a; snap_of b ] in
      check_str
        (Printf.sprintf "partition at %d: counters byte-identical" n)
        (Registry.counters_to_json whole)
        (Registry.counters_to_json m);
      check
        (Printf.sprintf "partition at %d: histograms identical" n)
        true
        (m.Registry.histograms = whole.Registry.histograms))
    [ 0; 7; 15; 30 ]

(* --- exports --- *)

let rich_snapshot () =
  make_snap ~jobs:(Some 2) (fun reg ->
      Registry.Counter.add (Registry.counter reg "a_total") 12;
      Registry.Counter.incr
        (Registry.counter reg (Registry.labelled "a_total" [ ("id", "e1") ]));
      Registry.Gauge.set (Registry.gauge reg "rate") 0.125;
      Registry.Timer.time (Registry.timer reg "t_ns") (fun () -> ());
      let h = Registry.histogram ~bin_width:2.0 reg "h" in
      List.iter (Registry.Hist.observe_int h) [ 1; 3; 3 ])

let test_json_round_trip () =
  let s = rich_snapshot () in
  (match Registry.snapshot_of_json (Registry.to_json s) with
  | Some s' -> check "round-trip preserves the snapshot" true (s = s')
  | None -> Alcotest.fail "snapshot_of_json failed on to_json output");
  check "malformed input is None" true
    (Registry.snapshot_of_json "{\"schema\":1" = None);
  check "non-object input is None" true (Registry.snapshot_of_json "42" = None);
  (* the header fields survive *)
  let s0 = make_snap ~jobs:None (fun _ -> ()) in
  match Registry.snapshot_of_json (Registry.to_json s0) with
  | Some s' -> check "jobs None survives" true (s'.Registry.jobs = None)
  | None -> Alcotest.fail "empty snapshot must round-trip"

let test_counters_to_json () =
  let s =
    make_snap ~jobs:None (fun reg ->
        Registry.Counter.add (Registry.counter reg "b_total") 2;
        Registry.Counter.incr (Registry.counter reg "a_total"))
  in
  check_str "deterministic counters object"
    "{\"a_total\":1,\"b_total\":2}"
    (Registry.counters_to_json s)

let test_prometheus () =
  let p = Registry.to_prometheus (rich_snapshot ()) in
  let has needle = Str_helpers.contains p needle in
  check "host header" true (has "cores=");
  check "counter TYPE line" true (has "# TYPE a_total counter");
  check "plain series" true (has "a_total 12");
  check "labelled series" true (has "a_total{id=\"e1\"} 1");
  check "one TYPE line for the family" true
    (Str_helpers.index_of p "# TYPE a_total counter"
    = Str_helpers.last_index_of p "# TYPE a_total counter");
  check "gauge line" true (has "rate 0.125");
  check "timer expansion" true
    (has "t_ns_count 1" && has "t_ns_total_ns" && has "t_ns_max_ns");
  check "cumulative buckets" true
    (has "h_bucket{le=\"2\"} 1" && has "h_bucket{le=\"4\"} 3"
    && has "h_bucket{le=\"+Inf\"} 3" && has "h_count 3")

(* --- cross-check: registry counters vs traced event counts --- *)

let test_counters_match_trace () =
  (* One replayed regression scenario, observed simultaneously through
     both observability subsystems: the aggregate counters must agree
     with the per-kind event counts wherever they measure the same
     thing. *)
  let module Trace = Dgs_trace.Trace in
  let module Scenario = Dgs_check.Scenario in
  let module Executor = Dgs_check.Executor in
  let path = Filename.concat "regressions" "ring7-eviction-livelock.json" in
  let sc =
    match Scenario.load path with
    | Some sc -> sc
    | None -> Alcotest.failf "cannot load %s" path
  in
  let ring = Trace.Ring.create ~capacity:65536 in
  let reg = Registry.create () in
  ignore (Executor.run ~trace:(Trace.Ring.sink ring) ~metrics:reg sc);
  check_int "ring kept every event" (Trace.Ring.seen ring) (Trace.Ring.length ring);
  let s = Registry.snapshot reg in
  let counter name = List.assoc name s.Registry.counters in
  let events = Trace.Ring.contents ring in
  let traced kind =
    List.length (List.filter (fun (_, ev) -> Trace.kind ev = kind) events)
  in
  List.iter
    (fun (metric, kind) ->
      check_int
        (Printf.sprintf "%s = #%s" metric kind)
        (traced kind) (counter metric))
    [
      (Names.medium_delivery_total, "Msg_delivered");
      (Names.medium_loss_total, "Msg_lost");
      (Names.medium_drop_total, "Msg_dropped");
      (Names.medium_broadcast_total, "Msg_sent");
      (Names.grp_quarantine_enter_total, "Quarantine_enter");
      (Names.grp_quarantine_admit_total, "Quarantine_admit");
    ];
  check "computes happened" true (counter Names.grp_compute_total > 0);
  check_int "cache hits + misses = computes"
    (counter Names.grp_compute_total)
    (counter Names.grp_compute_cache_hit_total
    + counter Names.grp_compute_cache_miss_total)

(* --- the doc vocabulary cannot drift from the code --- *)

let doc_path = Filename.concat ".." (Filename.concat "docs" "OBSERVABILITY.md")

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* First backticked token of a metric-table row: lines shaped
   [| `family` | kind | ...]. *)
let row_family line =
  let line = String.trim line in
  if String.length line > 3 && String.sub line 0 3 = "| `" then
    match String.index_from_opt line 3 '`' with
    | Some stop -> Some (String.sub line 3 (stop - 3))
    | None -> None
  else None

let test_doc_vocabulary () =
  let lines = read_lines doc_path in
  let in_section = ref false in
  let section =
    List.filter
      (fun line ->
        if String.trim line = "<!-- metric-names:begin -->" then
          in_section := true
        else if String.trim line = "<!-- metric-names:end -->" then
          in_section := false;
        !in_section)
      lines
  in
  check "markers found" true (section <> []);
  let documented =
    List.filter_map row_family section |> List.sort_uniq compare
  in
  Alcotest.(check (list string))
    "docs/OBSERVABILITY.md documents exactly the registered metric families"
    (List.sort compare Names.all)
    documented

(* The seven compute phases are laps of one clock over the compute, and
   [grp_compute_ns] is closed by its own clock read after the last lap,
   so the phases sum to it within [bound]: time that no lap covers shows
   in the whole only.  The span counts pin which phases each kind of compute
   runs: ingest on every compute; the priority, update and message phases
   on every compute that is not elided (a cache miss: full computes and
   decision reuses); admission, fold and contest, with [grp_fold_ns], on
   full computes only.  Decision reuses are the misses that ran no
   admission.  [expect ~elided ~reused] says what the run must exercise. *)
let check_phases_sum ~what ~bound ~expect run =
  let reg = Registry.create () in
  run reg;
  let s = Registry.snapshot reg in
  let timer name =
    match List.assoc_opt name s.Registry.timers with
    | Some st -> st
    | None -> Alcotest.failf "timer %s missing" name
  in
  let spans name = (timer name).Registry.spans in
  let counter name = List.assoc name s.Registry.counters in
  let phases =
    Names.
      [
        grp_compute_ingest_ns;
        grp_compute_priority_ns;
        grp_compute_admission_ns;
        grp_compute_fold_ns;
        grp_compute_contest_ns;
        grp_compute_update_ns;
        grp_compute_message_ns;
      ]
  in
  let whole = timer Names.grp_compute_ns in
  let sum = List.fold_left (fun acc n -> acc +. (timer n).Registry.total_ns) 0.0 phases in
  let computes = counter Names.grp_compute_total in
  let elided = counter Names.grp_compute_cache_hit_total in
  let misses = counter Names.grp_compute_cache_miss_total in
  let full = spans Names.grp_compute_admission_ns in
  let reused = misses - full in
  let spans_are expected names =
    List.iter
      (fun n -> check_int (Printf.sprintf "%s: %s spans" what n) expected (spans n))
      names
  in
  spans_are computes Names.[ grp_compute_ns; grp_compute_ingest_ns ];
  check_int (what ^ ": hits + misses = computes") computes (elided + misses);
  spans_are misses
    Names.[ grp_compute_priority_ns; grp_compute_update_ns; grp_compute_message_ns ];
  spans_are full Names.[ grp_compute_fold_ns; grp_compute_contest_ns; grp_fold_ns ];
  check (Printf.sprintf "%s: full computes > 0, reused %d" what reused) true
    (full > 0 && reused >= 0);
  check (Printf.sprintf "%s: exercised (elided %d, reused %d)" what elided reused) true
    (expect ~elided ~reused);
  check
    (Printf.sprintf "%s: phases sum %.0f ns within %.0f%% of grp_compute_ns %.0f ns" what sum
       (100.0 *. bound) whole.Registry.total_ns)
    true
    (whole.Registry.total_ns > 0.0
    && Float.abs (sum -. whole.Registry.total_ns) <= bound *. whole.Registry.total_ns)

(* A converge run (cold start, contests, quiet tail with elided computes)
   and the Dmax-1 path 0-1-2, whose aging solo node 2 makes nodes 0 and 1
   reuse their decisions on every compute once settled.  The path's
   computes take about a microsecond, so the stop's own clock read, which
   no lap covers, is 3-4% of its whole (0.4% on the converge run): it gets
   10% where the converge run keeps 5%.  A reuse that laps none of its
   table half leaves far more uncovered, and the span counts catch it
   first. *)
let test_compute_phases_sum () =
  let module Rounds = Dgs_sim.Rounds in
  let module Config = Dgs_core.Config in
  check_phases_sum ~what:"converge" ~bound:0.05
    ~expect:(fun ~elided ~reused:_ -> elided > 0)
    (fun reg ->
      let g = Dgs_workload.Harness.rgg ~seed:7 ~n:60 () in
      let t = Rounds.create ~config:(Config.make ~dmax:3 ()) ~metrics:reg g in
      ignore
        (Rounds.run_until_stable ~jitter:0.1 ~rng:(Dgs_util.Rng.create 7)
           ~max_rounds:2000 t));
  check_phases_sum ~what:"path3" ~bound:0.10
    ~expect:(fun ~elided:_ ~reused -> reused > 0)
    (fun reg ->
      let t =
        Rounds.create ~config:(Config.make ~dmax:1 ()) ~metrics:reg (Dgs_graph.Gen.line 3)
      in
      Rounds.run t 2000)

let suite =
  [
    ("null registry is a no-op", `Quick, test_null_noop);
    ("handles are interned by name", `Quick, test_interning);
    ("counter and gauge", `Quick, test_counter_gauge);
    ("timer", `Quick, test_timer);
    ("histogram binning and width conflict", `Quick, test_histogram);
    ("labelled series names", `Quick, test_labelled);
    ("snapshot is sorted and carries the host header", `Quick, test_snapshot_sorted_and_header);
    ("merge sums and maxes", `Quick, test_merge);
    ("merge is partition-independent", `Quick, test_merge_partition_independent);
    ("json round-trip", `Quick, test_json_round_trip);
    ("counters_to_json is the deterministic core", `Quick, test_counters_to_json);
    ("prometheus exposition", `Quick, test_prometheus);
    ("counters agree with traced event counts", `Quick, test_counters_match_trace);
    ("doc vocabulary", `Quick, test_doc_vocabulary);
    ("compute phase timers sum to grp_compute_ns", `Quick, test_compute_phases_sum);
  ]
