(* Unit tests for the grp_sim report analyzer: a small hand-written trace
   with a known convergence story, plus an end-to-end run over a real
   regression-corpus replay — the analyzer must reconstruct the timeline
   from the recorded events alone, without re-running the simulation. *)

module Trace = Dgs_trace.Trace
module Causal = Dgs_trace.Causal
module Postmortem = Dgs_trace.Postmortem
module Registry = Dgs_metrics.Registry
module Table = Dgs_metrics.Table
module Histogram = Dgs_metrics.Histogram
module Scenario = Dgs_check.Scenario
module Executor = Dgs_check.Executor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Two nodes converge on {0 1} at t=4 after node 1 evicts node 2 — enough
   structure to exercise every table. *)
let sample_events =
  [
    (1.0, Trace.Msg_delivered { src = 0; dst = 1; cause = -1 });
    (* node 2 shows up only as a delivery target: the stabilization table
       must list it with an unknown view *)
    (1.0, Trace.Msg_delivered { src = 1; dst = 2; cause = -1 });
    (1.0, Trace.Merge_attempt { node = 1; sender = 0; cause = -1 });
    (1.0, Trace.Merge_accepted { node = 1; sender = 0; cause = -1 });
    ( 2.0,
      Trace.View_changed
        { node = 0; added = [ 1 ]; removed = []; view = [ 0; 1 ]; cause = -1 } );
    ( 2.0,
      Trace.View_changed
        { node = 1; added = [ 0; 2 ]; removed = []; view = [ 0; 1; 2 ]; cause = -1 } );
    (3.0, Trace.Mark_set { node = 1; peer = 2; mark = "double"; cause = -1 });
    ( 4.0,
      Trace.View_changed
        { node = 1; added = []; removed = [ 2 ]; view = [ 0; 1 ]; cause = -1 } );
    (6.0, Trace.Msg_delivered { src = 1; dst = 0; cause = -1 });
  ]

let analyzed = lazy (Postmortem.analyze sample_events)

let test_basic () =
  let a = Lazy.force analyzed in
  check_int "event count" 9 (Postmortem.event_count a);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2 ] (Postmortem.nodes a)

let test_timeline () =
  let a = Lazy.force analyzed in
  let table = Postmortem.convergence_timeline ~buckets:5 a in
  let s = Table.render table in
  check "titled" true (Str_helpers.contains s "convergence timeline");
  check_int "one row per bucket" 5 (Table.row_count table);
  (* Span [1,6] in 5 buckets: both deliveries land in separate buckets,
     the three view changes in buckets 1 and 3; all three nodes are stable
     from bucket 3 on (node 2 never changed so it always counts). *)
  check "last bucket fully stable" true (Str_helpers.contains s "3/3")

let test_stabilization () =
  let a = Lazy.force analyzed in
  let s = Table.render (Postmortem.stabilization a) in
  check "titled" true (Str_helpers.contains s "view stabilization");
  check "node 1 changed twice to {0 1}" true
    (Str_helpers.contains s "{0 1}");
  (* node 2 emitted an event but never a View_changed *)
  check "unknown view shown for silent node" true (Str_helpers.contains s "?")

(* Eviction rows as CSV lines, header dropped. *)
let eviction_rows events =
  Postmortem.eviction_chains (Postmortem.analyze events)
  |> Table.to_csv |> String.trim |> String.split_on_char '\n' |> List.tl

(* Every row must carry what [Causal.chain] — the walk behind
   [grp_sim explain --eviction] — finds for the same eviction: its hop
   count and its root, as the row's last two cells. *)
let check_rows_match_chains events =
  let dag = Causal.build events in
  let expected =
    List.filter_map
      (fun i ->
        match Causal.event dag i with
        | _, Trace.View_changed { removed = _ :: _; _ } ->
            let ids = Causal.chain dag i in
            let root = Format.asprintf "%a" Causal.pp_step (dag, List.hd ids) in
            let root = if String.contains root ',' then "\"" ^ root ^ "\"" else root in
            Some (Printf.sprintf ",%d,%s" (List.length ids) root)
        | _ -> None)
      (List.init (Causal.size dag) Fun.id)
  in
  let rows = eviction_rows events in
  check_int "one row per eviction" (List.length expected) (List.length rows);
  List.iter2
    (fun suffix row ->
      check
        (Printf.sprintf "row %S ends with %S" row suffix)
        true
        (String.ends_with ~suffix row))
    expected rows

(* Without lineage ids the chain runs through the node's own decisions:
   the double mark is the cut's proximate cause, the merge that first
   shaped node 1's state its root. *)
let test_eviction_chains () =
  let a = Lazy.force analyzed in
  let table = Postmortem.eviction_chains a in
  check_int "one eviction" 1 (Table.row_count table);
  Alcotest.(check (list string))
    "cause, hops and root"
    [
      "4.00,1,{2},{0 1},\"[#6] t=3 Mark_set(node=1,peer=2,double)\",4,\"[#2] t=1 \
       Merge_accepted(node=1,sender=0)\"";
    ]
    (eviction_rows sample_events);
  check_rows_match_chains sample_events

let test_distributions () =
  let a = Lazy.force analyzed in
  (* Final views: node 0 -> {0 1}, node 1 -> {0 1} — one distinct group. *)
  check_int "one distinct final group" 1
    (Histogram.count (Postmortem.group_sizes a));
  (* Lifetimes: node 0 one span (2 -> end 6) = 4; node 1 spans 2->4 and
     4->6 = 2 and 2. *)
  let h = Postmortem.group_lifetimes a in
  check_int "three spans" 3 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean lifetime" (8.0 /. 3.0) (Histogram.mean h)

let test_render_and_csv () =
  let a = Lazy.force analyzed in
  let s = Postmortem.render a in
  List.iter
    (fun needle ->
      check (Printf.sprintf "render contains %S" needle) true
        (Str_helpers.contains s needle))
    [
      "convergence timeline";
      "view stabilization";
      "eviction chains";
      "group size distribution";
      "group lifetime distribution";
    ];
  let exports = Postmortem.csv_exports a in
  Alcotest.(check (list string))
    "export basenames"
    [
      "timeline.csv";
      "stabilization.csv";
      "evictions.csv";
      "group_sizes.csv";
      "group_lifetimes.csv";
    ]
    (List.map fst exports);
  List.iter
    (fun (name, content) ->
      check (name ^ " non-empty") true (String.length content > 0))
    exports

(* --- eviction-chain attribution over lineage ids --- *)

let lid src k = (src lsl 20) lor k

(* Two nodes cutting each other at the same tick, each on the other's
   broadcast: each row is attributed through its own cause lineage.
   Node 4's double mark shaped the broadcast that cut it, so it roots
   node 3's chain; node 3's later uncaused cut continues from its own
   previous decision. *)
let test_same_tick_eviction_pair () =
  let events =
    [
      (0.5, Trace.Mark_set { node = 4; peer = 3; mark = "double"; cause = -1 });
      (1.0, Trace.Msg_sent { src = 3; lid = lid 3 0 });
      (1.0, Trace.Msg_sent { src = 4; lid = lid 4 0 });
      (1.5, Trace.Msg_delivered { src = 3; dst = 4; cause = lid 3 0 });
      (1.5, Trace.Msg_delivered { src = 4; dst = 3; cause = lid 4 0 });
      ( 2.0,
        Trace.View_changed
          { node = 3; added = []; removed = [ 4 ]; view = [ 3 ]; cause = lid 4 0 } );
      ( 2.0,
        Trace.View_changed
          { node = 4; added = []; removed = [ 3 ]; view = [ 4 ]; cause = lid 3 0 } );
      ( 5.0,
        Trace.View_changed
          { node = 3; added = []; removed = [ 5 ]; view = [ 3 ]; cause = -1 } );
    ]
  in
  Alcotest.(check (list string))
    "cause, hops and root per row"
    [
      "2.00,3,{4},{3},[#2] t=1 Msg_sent(src=4),3,\"[#0] t=0.5 \
       Mark_set(node=4,peer=3,double)\"";
      "2.00,4,{3},{4},[#1] t=1 Msg_sent(src=3),2,[#1] t=1 Msg_sent(src=3)";
      "5.00,3,{5},{3},\"[#5] t=2 View_changed(node=3,+{},-{4},view={3})\",4,\"[#0] \
       t=0.5 Mark_set(node=4,peer=3,double)\"";
    ]
    (eviction_rows events);
  check_rows_match_chains events

(* The evictor departs right after cutting: its row stays attributed to
   the broadcast it acted on, and the later uncaused cut {e of} it by a
   node with no prior decision is a root of its own — no chain leaks
   across nodes. *)
let test_eviction_by_departed_evictor () =
  let events =
    [
      (1.0, Trace.Msg_sent { src = 2; lid = lid 2 0 });
      ( 1.5,
        Trace.View_changed
          { node = 1; added = []; removed = [ 2 ]; view = [ 0; 1 ]; cause = lid 2 0 } );
      ( 4.0,
        Trace.View_changed
          { node = 0; added = []; removed = [ 1 ]; view = [ 0 ]; cause = -1 } );
    ]
  in
  Alcotest.(check (list string))
    "rows"
    [
      "1.50,1,{2},{0 1},[#0] t=1 Msg_sent(src=2),2,[#0] t=1 Msg_sent(src=2)";
      "4.00,0,{1},{0},-,1,\"[#2] t=4 View_changed(node=0,+{},-{1},view={0})\"";
    ]
    (eviction_rows events);
  check_rows_match_chains events

(* A topology snapshot that an older trace recorded between a broadcast
   and the cut it caused is not a hop: the loader skips the retired
   [Topology_change] line, so the cut's parent is the broadcast. *)
let test_eviction_cause_across_snapshot_boundary () =
  let events =
    List.filter_map Trace.Jsonl.of_string
      [
        Printf.sprintf {|{"t":1,"ev":"Msg_sent","src":2,"lid":%d}|} (lid 2 0);
        {|{"t":2,"ev":"Topology_change","nodes":3,"edges":2}|};
        Printf.sprintf
          {|{"t":3,"ev":"View_changed","node":0,"added":[],"removed":[2],"view":[0,1],"cause":%d}|}
          (lid 2 0);
      ]
  in
  check_int "the snapshot line is skipped" 2 (List.length events);
  Alcotest.(check (list string))
    "row"
    [ "3.00,0,{2},{0 1},[#0] t=1 Msg_sent(src=2),2,[#0] t=1 Msg_sent(src=2)" ]
    (eviction_rows events);
  check_rows_match_chains events

(* The committed fixture predates the lineage layer (no lid/cause
   fields) and still holds the retired engine lines, which the loader
   skips (3,228 of its 5,263 lines): its evictions still get rows,
   chained through each node's own decisions. *)
let test_pre_provenance_fixture () =
  let events = Trace.Jsonl.load (Filename.concat "fixtures" "sample-trace.jsonl") in
  check_int "fixture events" 2035 (List.length events);
  check "no provenance recorded" true
    (List.for_all
       (fun (_, ev) -> Trace.cause_of ev = -1 && Trace.lid_of ev = -1)
       events);
  check_int "eviction rows" 11 (List.length (eviction_rows events));
  check_rows_match_chains events

let test_empty_trace () =
  let a = Postmortem.analyze [] in
  check_int "no events" 0 (Postmortem.event_count a);
  check "render still works" true
    (String.length (Postmortem.render a) > 0)

let test_snapshot_rendering () =
  let reg = Registry.create () in
  Registry.Counter.add (Registry.counter reg "grp_compute_total") 5;
  Registry.Gauge.set (Registry.gauge reg "medium_loss_rate") 0.2;
  Registry.Timer.time (Registry.timer reg "grp_compute_ns") (fun () -> ());
  Registry.Hist.observe_int (Registry.histogram reg "grp_view_size") 3;
  let s = Postmortem.render_snapshots [ Registry.snapshot ~jobs:2 reg ] in
  List.iter
    (fun needle ->
      check (Printf.sprintf "snapshot table contains %S" needle) true
        (Str_helpers.contains s needle))
    [ "metrics snapshot"; "jobs=2"; "grp_compute_total"; "counter";
      "gauge"; "timer"; "histogram" ]

(* --- end-to-end: analyze a replayed regression scenario --- *)

let test_regression_replay_report () =
  let path = Filename.concat "regressions" "complete4-one-sided-membership.json" in
  let sc =
    match Scenario.load path with
    | Some sc -> sc
    | None -> Alcotest.failf "cannot load %s" path
  in
  let ring = Trace.Ring.create ~capacity:65536 in
  ignore (Executor.run ~trace:(Trace.Ring.sink ring) sc);
  let a = Postmortem.analyze (Trace.Ring.contents ring) in
  check "replay produced events" true (Postmortem.event_count a > 0);
  let s = Postmortem.render a in
  check "convergence timeline from replay" true
    (Str_helpers.contains s "convergence timeline");
  check "group lifetime histogram from replay" true
    (Str_helpers.contains s "group lifetime distribution");
  check "stabilization table from replay" true
    (Str_helpers.contains s "view stabilization")

let suite =
  [
    ("analyze basics", `Quick, test_basic);
    ("convergence timeline", `Quick, test_timeline);
    ("stabilization table", `Quick, test_stabilization);
    ("eviction chains", `Quick, test_eviction_chains);
    ( "eviction cause across a snapshot boundary",
      `Quick,
      test_eviction_cause_across_snapshot_boundary );
    ("eviction by a departed evictor", `Quick, test_eviction_by_departed_evictor);
    ("same-tick eviction pair", `Quick, test_same_tick_eviction_pair);
    ("pre-provenance fixture eviction rows", `Quick, test_pre_provenance_fixture);
    ("group size and lifetime distributions", `Quick, test_distributions);
    ("render and csv exports", `Quick, test_render_and_csv);
    ("empty trace", `Quick, test_empty_trace);
    ("metrics snapshot tables", `Quick, test_snapshot_rendering);
    ("regression replay end-to-end", `Quick, test_regression_replay_report);
  ]
