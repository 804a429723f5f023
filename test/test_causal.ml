(* Causal provenance DAG: edge construction, backward slicing, chain and
   period queries over hand-written traces, and the pinned contract that
   sharded runs at any jobs/shards build the byte-identical DAG. *)

module Trace = Dgs_trace.Trace
module Causal = Dgs_trace.Causal
module Sharded = Dgs_sim.Sharded
module Harness = Dgs_workload.Harness
open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))
let lid src k = (src lsl 20) lor k

(* A two-node exchange: node 1's broadcast is delivered to 2, flips 2's
   view, which feeds 2's next broadcast, delivered back to 1. *)
let sample_exchange () =
  [
    (0.5, Trace.Msg_sent { src = 1; lid = lid 1 1 });
    (0.6, Trace.Msg_delivered { src = 1; dst = 2; cause = lid 1 1 });
    (0.6, Trace.View_changed { node = 2; added = [ 1 ]; removed = []; view = [ 1; 2 ]; cause = lid 1 1 });
    (1.5, Trace.Msg_sent { src = 2; lid = lid 2 1 });
    (1.6, Trace.Msg_lost { src = 2; dst = 1; cause = lid 2 1 });
    (2.5, Trace.Msg_sent { src = 2; lid = lid 2 2 });
    (2.6, Trace.Msg_delivered { src = 2; dst = 1; cause = lid 2 2 });
    (2.6, Trace.View_changed { node = 1; added = [ 2 ]; removed = []; view = [ 1; 2 ]; cause = lid 2 2 });
  ]

let test_build_edges () =
  let t = Causal.build (sample_exchange ()) in
  check_int "every event is a node" 8 (Causal.size t);
  (* Canonical order: time, then serialized form.  Id 0 is the first
     Msg_sent. *)
  (match Causal.event t 0 with
  | _, Trace.Msg_sent { src = 1; _ } -> ()
  | _ -> Alcotest.fail "id 0 should be node 1's broadcast");
  check_ints "broadcast has no parents" [] (Causal.parents t 0);
  check_ints "delivery and view change caused by the broadcast" [ 1; 2 ]
    (Causal.children t 0);
  (* Node 2's broadcasts both link from its view change (id 2). *)
  check_ints "view change feeds both next broadcasts" [ 3; 5 ] (Causal.children t 2);
  check_ints "second broadcast's parent is the view change" [ 2 ] (Causal.parents t 5);
  (* Backward slice from the final view change (id 7) reaches the origin
     — its delivery sibling (id 6) is a co-effect, not a cause. *)
  check_ints "ancestors of the final view change" [ 0; 2; 5 ]
    (Causal.ancestors_of t 7);
  check_ints "interval query" [ 3; 4 ] (Causal.between t ~lo:1.0 ~hi:2.0)

let test_find_last_and_chain () =
  let t = Causal.build (sample_exchange ()) in
  let is_vc _ = function Trace.View_changed _ -> true | _ -> false in
  (match Causal.find_last t is_vc with
  | Some 7 -> ()
  | other ->
      Alcotest.failf "last view change should be id 7, got %s"
        (match other with Some i -> string_of_int i | None -> "none"));
  (match Causal.find_last t ~at:1.0 is_vc with
  | Some 2 -> ()
  | _ -> Alcotest.fail "--at should restrict to the earlier view change");
  (* The minimal chain behind the final view change follows the latest
     parent each step: vc(7) <- sent(5) <- vc(2) <- sent(0). *)
  check_ints "chain root-first" [ 0; 2; 5; 7 ] (Causal.chain t 7);
  check_ints "stop_at truncates the walk" [ 2; 5; 7 ]
    (Causal.chain t ~stop_at:1.0 7)

(* An uncaused decision (a quarantine countdown tick) links from the
   node's preceding decision instead of dead-ending. *)
let test_uncaused_decision_edge () =
  let t =
    Causal.build
      [
        (0.5, Trace.Msg_sent { src = 1; lid = lid 1 1 });
        (0.6, Trace.Quarantine_enter { node = 2; member = 1; remaining = 2; cause = lid 1 1 });
        (1.6, Trace.Quarantine_enter { node = 2; member = 1; remaining = 1; cause = -1 });
        (2.6, Trace.Quarantine_admit { node = 2; member = 1; cause = -1 });
      ]
  in
  check_ints "countdown tick links from the previous decision" [ 1 ]
    (Causal.parents t 2);
  check_ints "admit links from the countdown tick" [ 2 ] (Causal.parents t 3);
  check_ints "chain crosses the timer-driven steps" [ 0; 1; 2; 3 ] (Causal.chain t 3)

(* Integer-tick traces (converge) give a broadcast and its directed
   copies the same timestamp.  A plain alphabetical tiebreak sorts
   "Msg_delivered" before "Msg_sent" and made cause edges point forward
   — two nodes answering each other inside one tick then formed a cycle
   and [chain] looped forever.  The kind rank keeps the tick causal and
   every edge backward. *)
let test_same_tick_ordering () =
  let t =
    Causal.build
      [
        (* Scrambled on purpose: deliveries and decisions listed before
           the broadcasts that cause them. *)
        (1.0, Trace.Merge_accepted { node = 7; sender = 8; cause = lid 8 1 });
        (1.0, Trace.Merge_accepted { node = 8; sender = 7; cause = lid 7 1 });
        (1.0, Trace.Msg_delivered { src = 7; dst = 8; cause = lid 7 1 });
        (1.0, Trace.Msg_delivered { src = 8; dst = 7; cause = lid 8 1 });
        (1.0, Trace.Msg_sent { src = 7; lid = lid 7 1 });
        (1.0, Trace.Msg_sent { src = 8; lid = lid 8 1 });
        (2.0, Trace.Msg_sent { src = 7; lid = lid 7 2 });
      ]
  in
  check_int "all events kept" 7 (Causal.size t);
  (* Ranked tick: both broadcasts first, then the deliveries, then the
     decisions. *)
  (match Causal.event t 0 with
  | _, Trace.Msg_sent _ -> ()
  | _ -> Alcotest.fail "broadcasts must lead the tick");
  Array.iteri
    (fun i _ ->
      List.iter
        (fun p -> check "every edge points backward" true (p < i))
        (Causal.parents t i))
    (Array.make (Causal.size t) ());
  (* The walk that used to hang: node 7's t=2 broadcast back through the
     same-tick mutual exchange. *)
  let c = Causal.chain t 6 in
  check "chain terminates and crosses the tick" true (List.length c >= 3);
  check_ints "chain ends at the queried event" [ 6 ]
    (match List.rev c with last :: _ -> [ last ] | [] -> [])

(* Period detection must reject a bare recurrence whose window does not
   repeat: node 1 flips twice per rotation, so the smallest recurrence of
   the last transition (distance 1.0) is not the rotation (2.0). *)
let test_detect_period_validates_window () =
  let vc node time view cause =
    (time, Trace.View_changed { node; added = []; removed = []; view; cause })
  in
  let rotation t0 =
    [
      vc 1 t0 [ 1 ] (-1);
      vc 2 (t0 +. 0.5) [ 2 ] (-1);
      vc 1 (t0 +. 1.0) [ 1 ] (-1);
    ]
  in
  let t = Causal.build (rotation 0.0 @ rotation 2.0 @ rotation 4.0) in
  match Causal.detect_period t with
  | None -> Alcotest.fail "period should be detected"
  | Some (start, last) ->
      let t0, _ = Causal.event t start in
      let t1, _ = Causal.event t last in
      Alcotest.(check (float 1e-9)) "full rotation, not the sub-recurrence"
        2.0 (t1 -. t0)

let test_slice_and_dot () =
  let t = Causal.build (sample_exchange ()) in
  let ids = Causal.chain t 7 in
  let dot = Causal.to_dot t ids in
  check "dot names the digraph" true (Str_helpers.contains dot "digraph causal");
  check "dot renders chain nodes" true (Str_helpers.contains dot "e7 [label=\"#7");
  check "dot renders in-set edges" true (Str_helpers.contains dot "e0 -> e2;");
  check "dot omits out-of-set nodes" false (Str_helpers.contains dot "e4 [label")

(* The pinned jobs/shards contract: the same simulation sharded 1, 2 and
   4 ways — per-shard sinks, a topology change mid-run — must build the
   byte-identical causal DAG ([Causal.signature]).  This is the
   observability face of the Sharded determinism contract: canonical ids
   absorb the shard interleaving. *)
let test_sharded_dag_identity () =
  let config = Config.make ~dmax:3 () in
  let g0 = Harness.rgg ~seed:11 ~n:18 () in
  let g1 = Harness.rgg ~seed:12 ~n:18 () in
  let dag_signature shards =
    let rings = Array.init shards (fun _ -> Trace.Ring.create ~capacity:65536) in
    let s =
      Sharded.create ~config ~shards ~jobs:shards ~seed:7
        ~make_trace:(fun sx -> Trace.Ring.sink rings.(sx))
        g0
    in
    Sharded.run ~jitter:0.3 s 6;
    Sharded.set_graph s g1;
    Sharded.run ~jitter:0.3 s 6;
    let events =
      Array.to_list rings |> List.concat_map Trace.Ring.contents
    in
    check "trace saw protocol events" true (events <> []);
    Causal.signature (Causal.build events)
  in
  let one = dag_signature 1 in
  let two = dag_signature 2 in
  let four = dag_signature 4 in
  Alcotest.(check string) "shards=2 builds the same DAG" one two;
  Alcotest.(check string) "shards=4 builds the same DAG" one four;
  check "the DAG is non-trivial" true (String.length one > 200)

(* A trace recorded before the engine and topology kinds were retired
   builds the DAG of the same trace with those lines stripped: the loader
   skips them like any line it cannot parse. *)
let test_legacy_trace_signature () =
  let path = Filename.concat "fixtures" "sample-trace.jsonl" in
  let lines =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic |> String.split_on_char '\n')
  in
  let retired l =
    List.exists (Str_helpers.contains l)
      [ {|"ev":"Event_scheduled"|}; {|"ev":"Event_fired"|}; {|"ev":"Topology_change"|} ]
  in
  check "the fixture holds engine lines" true (List.exists retired lines);
  let stripped =
    List.filter (fun l -> not (retired l)) lines |> List.filter_map Trace.Jsonl.of_string
  in
  Alcotest.(check string) "legacy trace = stripped trace"
    (Causal.signature (Causal.build stripped))
    (Causal.signature (Causal.of_file path))

let suite =
  [
    Alcotest.test_case "build edges" `Quick test_build_edges;
    Alcotest.test_case "find_last and chain" `Quick test_find_last_and_chain;
    Alcotest.test_case "uncaused decision edge" `Quick test_uncaused_decision_edge;
    Alcotest.test_case "same-tick ordering stays causal" `Quick
      test_same_tick_ordering;
    Alcotest.test_case "detect_period validates the window" `Quick
      test_detect_period_validates_window;
    Alcotest.test_case "slice and dot export" `Quick test_slice_and_dot;
    Alcotest.test_case "sharded DAG identity (jobs 1/2/4)" `Quick
      test_sharded_dag_identity;
    Alcotest.test_case "legacy trace builds the stripped trace's DAG" `Quick
      test_legacy_trace_signature;
  ]
