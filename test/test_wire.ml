(* Unit and property tests for the text wire format and frame-corruption
   robustness. *)

open Dgs_core
module Rng = Dgs_util.Rng

let check = Alcotest.(check bool)

let sample_message () =
  let antlist =
    Antlist.of_levels
      [
        [ (3, Mark.Clear) ];
        [ (1, Mark.Clear); (7, Mark.Single); (9, Mark.Double) ];
        [ (12, Mark.Clear) ];
      ]
  in
  let priority_ids, priorities =
    Message.priority_arrays
      (List.map
         (fun (v, o) -> (v, Priority.make ~oldness:o ~id:v))
         [ (3, 5); (1, 2); (7, 40); (9, 0); (12, 11) ])
  in
  Message.make ~sender:3 ~antlist ~priority_ids ~priorities
    ~group_priority:(Priority.make ~oldness:2 ~id:1)
    ~view:[| 1; 3; 12 |]

let messages_equal (a : Message.t) (b : Message.t) =
  a.Message.sender = b.Message.sender
  && Antlist.equal a.Message.antlist b.Message.antlist
  && a.Message.priority_ids = b.Message.priority_ids
  && Array.for_all2 Priority.equal a.Message.priorities b.Message.priorities
  && Priority.equal a.Message.group_priority b.Message.group_priority
  && a.Message.view = b.Message.view

let test_roundtrip () =
  let m = sample_message () in
  match Wire.of_string (Wire.to_string m) with
  | Some m' -> check "roundtrip" true (messages_equal m m')
  | None -> Alcotest.fail "failed to parse own output"

let test_roundtrip_minimal () =
  let m =
    Message.make ~sender:0 ~antlist:(Antlist.singleton 0)
      ~priority_ids:[| 0 |] ~priorities:[| Priority.initial 0 |]
      ~group_priority:(Priority.initial 0)
      ~view:[| 0 |]
  in
  match Wire.of_string (Wire.to_string m) with
  | Some m' -> check "minimal roundtrip" true (messages_equal m m')
  | None -> Alcotest.fail "failed to parse minimal frame"

let test_frame_shape () =
  let s = Wire.to_string (sample_message ()) in
  check "magic prefix" true (String.length s > 5 && String.sub s 0 5 = "GRP1|");
  check "single line" true (not (String.contains s '\n'))

let test_rejects_garbage () =
  List.iter
    (fun s -> check (Printf.sprintf "rejects %S" s) true (Wire.of_string s = None))
    [
      "";
      "hello";
      "GRP1";
      "GRP1|x|0|0:0.0|0.0|0";
      "GRP1|0|0|0:0.0|0.0";
      "GRP2|0|0|0:0.0|0.0|0";
      "GRP1|0|0|junk|0.0|0";
      "GRP1|0|0|0:0.0|zero|0";
      "GRP1|0|0'''|0:0.0|0.0|0";
      "GRP1|-1|0|0:0.0|0.0|0";
      "GRP1|0|0|0:0.0|0.0|a,b";
    ]

(* Antlist entries pack an id with its mark into one int, so ids must lie
   in [0, 2^60): a frame naming a larger id anywhere is unparseable, like
   any other malformed frame; the largest packable id survives. *)
let test_id_range () =
  let big = "1152921504606846976" (* 2^60, 19 digits *)
  and top = "1152921504606846975" in
  List.iter
    (fun s -> check (Printf.sprintf "rejects %S" s) true (Wire.of_string s = None))
    [
      Printf.sprintf "GRP1|%s|%s|0:0.0|0.0|0" big big;
      Printf.sprintf "GRP1|0|0/%s'|0:0.0|0.0|0" big;
      Printf.sprintf "GRP1|0|0|%s:0.0|0.0|0" big;
      Printf.sprintf "GRP1|0|0|0:0.%s|0.0|0" big;
      Printf.sprintf "GRP1|0|0|0:0.0|0.0|0,%s" big;
      "GRP1|0|0|0:0.0|0.0|9999999999999999999";
    ];
  let frame = Printf.sprintf "GRP1|%s|%s/0''|%s:4.%s|0.0|%s" top top top top top in
  match Wire.of_string frame with
  | None -> Alcotest.fail "largest packable id rejected"
  | Some m ->
      let id = int_of_string top in
      check "sender" true (m.Message.sender = id);
      check "entry and mark" true
        (Antlist.find m.Message.antlist id = Some (0, Mark.Clear)
        && Antlist.find m.Message.antlist 0 = Some (1, Mark.Double));
      check "priority" true
        (Message.priority_bindings m = [ (id, Priority.make ~oldness:4 ~id) ]);
      check "reprinted" true
        (Wire.to_string m = frame)

(* Priorities parse into id-sorted arrays with the semantics of a left
   [Map.add] fold: any input order, and the last binding of a repeated id
   wins. *)
let test_duplicate_priority_key () =
  match Wire.of_string "GRP1|3|3/1|3:2.3,1:5.1,1:7.1|2.1|1,3" with
  | None -> Alcotest.fail "frame with a repeated priority key rejected"
  | Some m ->
      check "sorted, last binding wins" true
        (Message.priority_bindings m
        = [ (1, Priority.make ~oldness:7 ~id:1); (3, Priority.make ~oldness:2 ~id:3) ]);
      check "arrays" true
        (m.Message.priority_ids = [| 1; 3 |]
        && Array.length m.Message.priorities = 2)

(* A corrupted frame may repeat or reorder view ids; the view still
   parses strictly increasing, as a message requires. *)
let test_view_sorted () =
  match Wire.of_string "GRP1|3|3|3:2.3|2.3|12,3,1,3" with
  | None -> Alcotest.fail "frame with a repeated view id rejected"
  | Some m -> check "sorted, deduplicated" true (m.Message.view = [| 1; 3; 12 |])

let test_live_message_roundtrip () =
  (* Messages produced by running protocol nodes survive the wire. *)
  let config = Config.make ~dmax:2 () in
  let nodes = List.init 4 (fun i -> Grp_node.create ~config i) in
  for _ = 1 to 5 do
    let msgs = List.map Grp_node.make_message nodes in
    List.iter (fun n -> List.iter (Grp_node.receive n) msgs) nodes;
    List.iter (fun n -> ignore (Grp_node.compute n)) nodes
  done;
  List.iter
    (fun n ->
      let m = Grp_node.make_message n in
      match Wire.of_string (Wire.to_string m) with
      | Some m' -> check "live roundtrip" true (messages_equal m m')
      | None -> Alcotest.fail "live message failed roundtrip")
    nodes

let test_corrupt_changes_bytes () =
  let rng = Rng.create 1 in
  let s = Wire.to_string (sample_message ()) in
  let c = Wire.corrupt rng ~mutations:3 s in
  check "same length" true (String.length c = String.length s)

let prop_parser_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"parser never raises on corrupted frames" ~count:500
       QCheck.small_nat (fun seed ->
         let rng = Rng.create seed in
         let s =
           Wire.corrupt rng ~mutations:(1 + (seed mod 5))
             (Wire.to_string (sample_message ()))
         in
         match Wire.of_string s with
         | Some _ | None -> true))

let prop_roundtrip_random =
  (* Random well-formed messages roundtrip exactly. *)
  let gen =
    QCheck.Gen.(
      let* sender = int_bound 50 in
      let* others = list_size (int_range 0 4) (int_bound 50) in
      let levels =
        [ [ (sender, Mark.Clear) ]; List.map (fun v -> (v, Mark.Clear)) others ]
      in
      let antlist = Antlist.of_levels (List.filter (fun l -> l <> []) levels) in
      let priority_ids, priorities =
        Message.priority_arrays
          (List.map
             (fun v -> (v, Priority.make ~oldness:(v * 3) ~id:v))
             (Node_id.Set.elements (Antlist.ids antlist)))
      in
      return
        (Message.make ~sender ~antlist ~priority_ids ~priorities
           ~group_priority:(Priority.make ~oldness:1 ~id:sender)
           ~view:(Array.of_list (Node_id.Set.elements (Antlist.clear_ids antlist)))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random messages roundtrip" ~count:200
       (QCheck.make ~print:(fun m -> Wire.to_string m) gen)
       (fun m ->
         match Wire.of_string (Wire.to_string m) with
         | Some m' -> messages_equal m m'
         | None -> false))

let test_net_with_corruption_still_converges () =
  let graph = Dgs_graph.Gen.line 3 in
  let net =
    Dgs_sim.Net.create ~rng:(Rng.create 11)
      ~config:(Config.make ~dmax:2 ())
      ~corruption:0.1
      ~topology:(fun () -> graph)
      ~nodes:(Dgs_graph.Graph.nodes graph)
      ()
  in
  (* Corrupted-but-parsable frames perturb the state and self-stabilization
     heals it; sample the steady state and require the correct view most of
     the time. *)
  let everyone = Node_id.set_of_list [ 0; 1; 2 ] in
  let good = ref 0 in
  for i = 1 to 10 do
    Dgs_sim.Net.run_until net (100.0 +. (10.0 *. float_of_int i));
    if Node_id.Set.equal (Grp_node.view (Dgs_sim.Net.node net 0)) everyone then
      incr good
  done;
  check "mostly converged despite corrupted frames" true (!good >= 8)

let suite =
  [
    ("roundtrip", `Quick, test_roundtrip);
    ("minimal roundtrip", `Quick, test_roundtrip_minimal);
    ("frame shape", `Quick, test_frame_shape);
    ("rejects garbage", `Quick, test_rejects_garbage);
    ("ids beyond 2^60 rejected", `Quick, test_id_range);
    ("repeated priority key: last wins", `Quick, test_duplicate_priority_key);
    ("repeated or unordered view ids: sorted", `Quick, test_view_sorted);
    ("live message roundtrip", `Quick, test_live_message_roundtrip);
    ("corrupt preserves length", `Quick, test_corrupt_changes_bytes);
    prop_parser_total;
    prop_roundtrip_random;
    ("net converges under frame corruption", `Quick, test_net_with_corruption_still_converges);
  ]
