(* Unit and integration tests for the dgs_trace event subsystem: sinks
   (ring, JSONL, null), agreement between a trace's per-kind and
   per-destination event counts and the network runtime's own stats, the
   E1 View_changed stream, and the doc-vocabulary diff that keeps
   docs/OBSERVABILITY.md in sync with the event type. *)

module Trace = Dgs_trace.Trace
module Net = Dgs_sim.Net
module Rounds = Dgs_sim.Rounds
module Monitor = Dgs_spec.Monitor
module Postmortem = Dgs_trace.Postmortem
module Harness = Dgs_workload.Harness
module Gen = Dgs_graph.Gen
module Rng = Dgs_util.Rng
open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* One sample per constructor; the coverage guard below fails the suite if
   a new constructor is added without extending this list.  Provenance is
   set (>= 0) on every sample so the doc field-schema diff below sees the
   full JSONL surface; the [-1]-omission path is covered separately. *)
let samples : (float * Trace.event) list =
  [
    (1.0, Msg_sent { src = 0; lid = 3 });
    (1.0, Msg_delivered { src = 0; dst = 4; cause = 3 });
    (2.0, Msg_lost { src = 3; dst = 7; cause = (3 lsl 20) lor 5 });
    (1.5, Msg_dropped { src = 0; dst = 2; cause = 3 });
    ( 3.0,
      View_changed
        { node = 4; added = [ 2 ]; removed = []; view = [ 2; 4 ]; cause = 3 } );
    (2.0, Quarantine_enter { node = 4; member = 2; remaining = 3; cause = 3 });
    (5.0, Quarantine_admit { node = 4; member = 2; cause = 3 });
    (2.0, Mark_set { node = 4; peer = 9; mark = "single"; cause = 3 });
    (4.0, Mark_cleared { node = 4; peer = 9; cause = 3 });
    (2.0, Merge_attempt { node = 4; sender = 9; cause = 3 });
    (2.5, Merge_accepted { node = 4; sender = 9; cause = 3 });
    (2.5, Gate_conviction { node = 4; peer = 9; cause = 3 });
    (2.5, Contest_win { node = 4; far = 9; cause = 3 });
    (2.5, Contest_freeze { node = 4; far = 9; cause = 3 });
  ]

let test_samples_cover_vocabulary () =
  Alcotest.(check (list string))
    "one sample per constructor" Trace.kinds
    (List.map (fun (_, ev) -> Trace.kind ev) samples)

(* --- null sink --- *)

let test_null_noop () =
  check "disabled" false (Trace.enabled Trace.null);
  (* Emission and clock updates through the null sink must be harmless. *)
  List.iter (fun (t, ev) -> Trace.set_time Trace.null t; Trace.emit Trace.null ev) samples

(* --- ring sink --- *)

let test_ring_wraparound () =
  let ring = Trace.Ring.create ~capacity:4 in
  let sink = Trace.Ring.sink ring in
  check "enabled" true (Trace.enabled sink);
  for i = 1 to 10 do
    Trace.set_time sink (float_of_int i);
    Trace.emit sink (Trace.Msg_sent { src = i; lid = -1 })
  done;
  check_int "length capped" 4 (Trace.Ring.length ring);
  check_int "seen counts overwritten" 10 (Trace.Ring.seen ring);
  Alcotest.(check (list int))
    "oldest first, most recent kept" [ 7; 8; 9; 10 ]
    (List.map
       (fun (_, ev) -> match ev with Trace.Msg_sent { src; _ } -> src | _ -> -1)
       (Trace.Ring.contents ring));
  Trace.Ring.clear ring;
  check_int "clear" 0 (Trace.Ring.length ring)

(* --- filters and tee --- *)

let test_filter_kinds () =
  let ring = Trace.Ring.create ~capacity:64 in
  let sink = Trace.filter_kinds [ "view_changed"; "Msg_lost" ] (Trace.Ring.sink ring) in
  List.iter (fun (t, ev) -> Trace.set_time sink t; Trace.emit sink ev) samples;
  Alcotest.(check (list string))
    "case-insensitive subset" [ "Msg_lost"; "View_changed" ]
    (List.sort compare
       (List.map (fun (_, ev) -> Trace.kind ev) (Trace.Ring.contents ring)));
  check "unknown kind rejected" true
    (match Trace.filter_kinds [ "Msg_teleported" ] Trace.null with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_tee () =
  let a = Trace.Ring.create ~capacity:64 and b = Trace.Ring.create ~capacity:64 in
  let sink = Trace.tee (Trace.Ring.sink a) (Trace.Ring.sink b) in
  List.iter (fun (t, ev) -> Trace.set_time sink t; Trace.emit sink ev) samples;
  check "both sides" true
    (Trace.Ring.contents a = Trace.Ring.contents b
    && Trace.Ring.length a = List.length samples)

(* --- JSONL --- *)

let test_jsonl_roundtrip () =
  List.iter
    (fun (t, ev) ->
      let line = Trace.Jsonl.to_string t ev in
      match Trace.Jsonl.of_string line with
      | Some (t', ev') ->
          check (Trace.kind ev ^ " round-trips") true (t = t' && ev = ev')
      | None -> Alcotest.failf "unparsable: %s" line)
    samples

let test_jsonl_file_roundtrip () =
  let path = Filename.temp_file "dgs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Jsonl.with_file path (fun sink ->
          List.iter (fun (t, ev) -> Trace.set_time sink t; Trace.emit sink ev) samples);
      check "load returns what was written" true (Trace.Jsonl.load path = samples))

let test_jsonl_load_skips_garbage () =
  let path = Filename.temp_file "dgs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        (Trace.Jsonl.to_string 1.0 (Trace.Msg_sent { src = 3; lid = -1 }));
      output_string oc "\nnot json at all\n{\"t\":2,\"ev\":\"No_such_event\"}\n";
      close_out oc;
      check "malformed lines skipped" true
        (Trace.Jsonl.load path = [ (1.0, Trace.Msg_sent { src = 3; lid = -1 }) ]))

(* Traces are lossless: a fuzzed replay, whose simulation timestamps
   carry random per-copy delays, loads back exactly as it was emitted. *)
let test_jsonl_lossless_replay () =
  let module Scenario = Dgs_check.Scenario in
  let sc = Scenario.generate (Rng.split_at (Rng.create 42) 0) ~max_actions:10 in
  let emitted = ref [] in
  let memory = Trace.make (fun ~time ev -> emitted := (time, ev) :: !emitted) in
  let path = Filename.temp_file "dgs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Jsonl.with_file path (fun file ->
          ignore (Dgs_check.Executor.run ~trace:(Trace.tee memory file) sc));
      let emitted = List.rev !emitted in
      check "events were traced" true (List.length emitted > 1000);
      check "load returns exactly the emitted events" true
        (Trace.Jsonl.load path = emitted))

(* Backward compatibility of the provenance fields: [-1] is omitted on
   the wire, and absent fields parse back as [-1] — traces recorded
   before the lineage layer load unchanged. *)
let test_jsonl_provenance_compat () =
  let s = Trace.Jsonl.to_string 1.0 (Trace.Msg_sent { src = 3; lid = -1 }) in
  check "lid omitted at -1" false (Str_helpers.contains s "lid");
  let s =
    Trace.Jsonl.to_string 1.0 (Trace.Msg_delivered { src = 0; dst = 1; cause = -1 })
  in
  check "cause omitted at -1" false (Str_helpers.contains s "cause");
  check "pre-provenance Msg_sent loads" true
    (Trace.Jsonl.of_string {|{"t":1,"ev":"Msg_sent","src":3}|}
    = Some (1.0, Trace.Msg_sent { src = 3; lid = -1 }));
  check "pre-provenance View_changed loads" true
    (Trace.Jsonl.of_string
       {|{"t":3,"ev":"View_changed","node":4,"added":[2],"removed":[],"view":[2,4]}|}
    = Some
        ( 3.0,
          Trace.View_changed
            { node = 4; added = [ 2 ]; removed = []; view = [ 2; 4 ]; cause = -1 } ));
  List.iter
    (fun line ->
      check ("retired kind skipped: " ^ line) true (Trace.Jsonl.of_string line = None))
    [
      {|{"t":0,"ev":"Event_scheduled","id":0,"at":0.99}|};
      {|{"t":0.99,"ev":"Event_fired","id":0,"at":0.99}|};
      {|{"t":12,"ev":"Topology_change","nodes":30,"edges":71}|};
    ]

(* --- rotating JSONL sink --- *)

let test_rotating_sink () =
  let path = Filename.temp_file "dgs_rot" ".jsonl" in
  let slots = [ path; path ^ ".1"; path ^ ".2"; path ^ ".3" ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) slots)
    (fun () ->
      (* Constant-length lines (2-digit lids): cap each file at 3 lines. *)
      let line_len =
        String.length (Trace.Jsonl.to_string 1.0 (Trace.Msg_sent { src = 0; lid = 10 }))
        + 1
      in
      let r = Trace.Rotating.create ~path ~max_bytes:(3 * line_len) ~keep:3 in
      let sink = Trace.Rotating.sink r in
      Trace.set_time sink 1.0;
      for lid = 10 to 20 do
        Trace.emit sink (Trace.Msg_sent { src = 0; lid })
      done;
      check_int "rotations" 3 (Trace.Rotating.rotations r);
      Trace.Rotating.close r;
      check "keep bound respected" false (Sys.file_exists (path ^ ".3"));
      let lids p =
        List.map (fun (_, ev) -> Trace.lid_of ev) (Trace.Jsonl.load p)
      in
      Alcotest.(check (list int)) "newest events in the base file" [ 19; 20 ] (lids path);
      Alcotest.(check (list int)) "previous file" [ 16; 17; 18 ] (lids (path ^ ".1"));
      Alcotest.(check (list int)) "oldest kept file" [ 13; 14; 15 ] (lids (path ^ ".2")))

(* --- traced event counts vs. the runtime's ground truth --- *)

(* A lossy star with hub 0; leaf 3 is deactivated halfway, so copies
   addressed to it become drops.  The per-kind trace counts equal
   [Net.stats], and per leaf every hub broadcast ends in exactly one of
   delivered, lost or dropped — copies sent within the maximum delay
   (0.01) of the horizon excepted, which may still be in flight. *)
let test_trace_counts_match_net () =
  let graph = Gen.star 4 in
  let ring = Trace.Ring.create ~capacity:65536 in
  let net =
    Net.create ~rng:(Rng.create 11)
      ~config:(Config.make ~dmax:2 ())
      ~loss:0.4
      ~trace:(Trace.Ring.sink ring)
      ~topology:(fun () -> graph)
      ~nodes:(Dgs_graph.Graph.nodes graph) ()
  in
  let horizon = 40.0 in
  Net.run_until net (horizon /. 2.0);
  Net.deactivate net 3;
  Net.run_until net horizon;
  check_int "ring kept every event" (Trace.Ring.seen ring) (Trace.Ring.length ring);
  let events = Trace.Ring.contents ring in
  let count kind = List.length (List.filter (fun (_, ev) -> Trace.kind ev = kind) events) in
  let s = Net.stats net in
  check_int "sends" s.Net.broadcasts (count "Msg_sent");
  check_int "deliveries" s.Net.deliveries (count "Msg_delivered");
  check_int "losses" s.Net.losses (count "Msg_lost");
  check_int "drops" s.Net.drops (count "Msg_dropped");
  let hub_sends =
    List.filter_map
      (function time, Trace.Msg_sent { src = 0; lid } -> Some (time, lid) | _ -> None)
      events
  in
  (* The hub broadcast each terminal event of [leaf] answers. *)
  let outcomes leaf =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Trace.Msg_delivered { src = 0; dst; cause }
        | Trace.Msg_lost { src = 0; dst; cause }
        | Trace.Msg_dropped { src = 0; dst; cause }
          when dst = leaf ->
            Some cause
        | _ -> None)
      events
  in
  List.iter
    (fun leaf ->
      let answered = List.sort compare (outcomes leaf) in
      let in_flight (time, lid) = time > horizon -. 0.01 && not (List.mem lid answered) in
      let landed = List.filter (fun send -> not (in_flight send)) hub_sends in
      check_int
        (Printf.sprintf "delivered + lost + dropped at %d" leaf)
        (List.length landed) (List.length answered);
      Alcotest.(check (list int))
        (Printf.sprintf "one outcome per hub broadcast at %d" leaf)
        (List.sort compare (List.map snd landed))
        answered)
    [ 1; 2; 3 ];
  check "some of each" true
    (s.Net.deliveries > 0 && s.Net.losses > 0 && s.Net.drops > 0)

(* --- E1: the View_changed stream pins down convergence --- *)

let test_e1_view_changed_sequence () =
  let tally = Postmortem.view_tally () in
  let t =
    Rounds.create
      ~config:(Config.make ~dmax:3 ())
      ~trace:(Postmortem.view_tally_sink tally) (Gen.grid 3 3)
  in
  (match Rounds.run_until_stable ~jitter:0.1 ~rng:(Rng.create 42) t with
  | Some _ -> ()
  | None -> Alcotest.fail "E1 grid did not converge");
  let stab = Postmortem.view_stabilization tally in
  Alcotest.(check (list int))
    "every node changed views at least once" (Rounds.node_ids t)
    (List.map (fun (node, _, _, _) -> node) stab);
  List.iter
    (fun (node, _, final_view, changes) ->
      check (Printf.sprintf "node %d ends in its stable view" node) true
        (final_view = Node_id.Set.elements (Grp_node.view (Rounds.node t node)));
      check "at least one change" true (changes >= 1))
    stab

(* The tally keeps every change however long the stream: 70,000 events,
   past the 65,536-entry ring the CLI once summarized, over 7 nodes.
   Event [k] belongs to node [k mod 7] at time [k], with view [node; k]. *)
let test_view_tally_long_stream () =
  let tally = Postmortem.view_tally () in
  let sink = Postmortem.view_tally_sink tally in
  let nodes = 7 and events = 70_000 in
  for k = 0 to events - 1 do
    let node = k mod nodes in
    Trace.set_time sink (float_of_int k);
    Trace.emit sink
      (Trace.View_changed { node; added = [ k ]; removed = []; view = [ node; k ]; cause = -1 });
    Trace.emit sink (Trace.Msg_sent { src = node; lid = k })
  done;
  let expected =
    List.init nodes (fun node ->
        let last = events - nodes + node in
        (node, float_of_int last, [ node; last ], events / nodes))
  in
  let stab = Postmortem.view_stabilization tally in
  check_int "nodes" nodes (List.length stab);
  check_int "changes" events (List.fold_left (fun acc (_, _, _, n) -> acc + n) 0 stab);
  check "per-node count, last time and final view" true (stab = expected)

(* --- monitor timeline --- *)

let test_monitor_timeline () =
  let g = Gen.line 3 in
  let t = Rounds.create ~config:(Config.make ~dmax:2 ()) g in
  let monitor = Monitor.create ~dmax:2 in
  let on_round r =
    Monitor.observe_at monitor ~time:(float_of_int r) (Harness.snapshot t g)
  in
  match Rounds.run_until_stable ~on_round t with
  | None -> Alcotest.fail "line of 3 did not converge"
  | Some rounds ->
      let tl = Monitor.timeline monitor in
      let get name = function
        | Some x -> x
        | None -> Alcotest.failf "%s never sustained" name
      in
      let ta = get "agreement" tl.Monitor.time_to_agreement in
      let ts = get "safety" tl.Monitor.time_to_safety in
      let tm = get "maximality" tl.Monitor.time_to_maximality in
      let tl3 = get "legitimacy" tl.Monitor.time_to_legitimate in
      check "times within the run" true
        (List.for_all
           (fun x -> x >= 1.0 && x <= float_of_int (rounds + 2))
           [ ta; ts; tm; tl3 ]);
      check "legitimacy is the last to land" true
        (tl3 >= ta && tl3 >= ts && tl3 >= tm)

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

(* Backticked tokens on a line: the odd-indexed pieces of a split on '`'. *)
let backticked line =
  let rec go i = function
    | [] -> []
    | x :: rest -> if i mod 2 = 1 then x :: go (i + 1) rest else go (i + 1) rest
  in
  go 0 (String.split_on_char '`' line)

(* Constructor-shaped: leading capital, at least one underscore, lowercase
   tail — matches [Msg_sent] but not [Dmax], [Rounds] or field names. *)
let is_kind_token s =
  String.length s > 1
  && s.[0] >= 'A'
  && s.[0] <= 'Z'
  && String.contains s '_'
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || c = '_')
       (String.sub s 1 (String.length s - 1))

let kinds_section () =
  let lines = read_lines doc_path in
  let in_section = ref false in
  let section =
    List.filter
      (fun line ->
        if String.trim line = "<!-- trace-kinds:begin -->" then in_section := true
        else if String.trim line = "<!-- trace-kinds:end -->" then in_section := false;
        !in_section)
      lines
  in
  check "markers found" true (section <> []);
  section

let test_doc_vocabulary () =
  let documented =
    List.concat_map backticked (kinds_section ())
    |> List.filter is_kind_token
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string))
    "docs/OBSERVABILITY.md documents exactly the emitted event types"
    (List.sort compare Trace.kinds)
    documented

(* The field column of the same table cannot drift from the JSONL schema:
   each row's backticked field names must equal, in order, what
   [Trace.Jsonl.fields] emits for that event (the samples carry full
   provenance, so omission never hides a field here). *)
let test_doc_field_schema () =
  let rows =
    List.filter_map
      (fun line ->
        match String.split_on_char '|' line with
        | _ :: kind_cell :: fields_cell :: _ -> (
            match List.filter is_kind_token (backticked kind_cell) with
            | [ k ] -> Some (k, backticked fields_cell)
            | _ -> None)
        | _ -> None)
      (kinds_section ())
  in
  Alcotest.(check (list string))
    "one table row per constructor" (List.sort compare Trace.kinds)
    (List.sort compare (List.map fst rows));
  List.iter
    (fun (k, documented) ->
      let _, ev = List.find (fun (_, ev) -> Trace.kind ev = k) samples in
      Alcotest.(check (list string))
        (k ^ " fields")
        (List.map fst (Trace.Jsonl.fields ev))
        documented)
    rows

let suite =
  [
    ("samples cover the vocabulary", `Quick, test_samples_cover_vocabulary);
    ("null sink is a no-op", `Quick, test_null_noop);
    ("ring wraparound", `Quick, test_ring_wraparound);
    ("filter_kinds", `Quick, test_filter_kinds);
    ("tee duplicates", `Quick, test_tee);
    ("jsonl round-trip (every event)", `Quick, test_jsonl_roundtrip);
    ("jsonl file round-trip", `Quick, test_jsonl_file_roundtrip);
    ("jsonl load skips garbage", `Quick, test_jsonl_load_skips_garbage);
    ("jsonl replay trace is lossless", `Quick, test_jsonl_lossless_replay);
    ("jsonl provenance backward-compat", `Quick, test_jsonl_provenance_compat);
    ("rotating sink", `Quick, test_rotating_sink);
    ("traced counts match net stats", `Quick, test_trace_counts_match_net);
    ("E1 View_changed sequence", `Quick, test_e1_view_changed_sequence);
    ("view tally counts a 70,000-event stream", `Quick, test_view_tally_long_stream);
    ("monitor timeline", `Quick, test_monitor_timeline);
    ("doc vocabulary", `Quick, test_doc_vocabulary);
    ("doc field schema", `Quick, test_doc_field_schema);
  ]
