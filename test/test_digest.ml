(* Per-round state-digest fence.  Two pinned runs hash, every round,
   every node's antlist, view, quarantine table, own priority and the
   message it would send now (its wire frame, so the gossiped
   priorities are covered) into one MD5 per round, and compare the
   sequence with the committed expectation in [test/fixtures/].  The
   counter fence in [test/dune] only sees aggregates, which can coincide
   while the state underneath diverges; a digest cannot.

   The runs mirror the counter fence's instances:
   - [Sharded] on the highway of [grp_sim vanet -n 300 --rounds 40
     --jobs 2 --shards 2] (seed 42, 10 warmup rounds, then 40 mobility
     steps), every round digested;
   - [Rounds] on [grp_sim converge -t rgg -n 200 -s 3], up to
     quiescence.

   A third run fences the lossy [Rounds] schedule, which neither
   instance exercises: a 30-node random geometric graph for 60 rounds at
   loss 0.1, corruption 0.05, two sends per round and jitter 0.1, every
   draw from one rng.

   A refactor must leave both sequences unchanged.  On a mismatch the
   actual sequence is written next to the test binary as
   [<fixture>.actual]; an intended behaviour change copies it over the
   fixture and says why.

   The same fence pins every per-scenario [Oracle.report_to_json] line
   of the counter fence's campaign ([grp_sim fuzz --seed 42 --runs 250
   --max-actions 10]): the counter fence sums registry counters over the
   campaign, so a run's own drops, losses or engine-fire budget could
   move unseen.  The unguided generator never emits mobility or ramp
   actions, so a second report fence runs the coverage-guided campaign
   [Fuzz.campaign ~coverage:true ~seed:7 ~runs:250 ~max_actions:10],
   whose stream draws every [mob-*] and [ramp-*] action. *)

module Rounds = Dgs_sim.Rounds
module Sharded = Dgs_sim.Sharded
module Mobility = Dgs_mobility.Mobility
module Vanet = Dgs_workload.Vanet
module Harness = Dgs_workload.Harness
module Rng = Dgs_util.Rng
module Fuzz = Dgs_check.Fuzz
module Oracle = Dgs_check.Oracle
open Dgs_core

let node_state buf nd =
  let set s =
    Node_id.Set.iter (fun v -> Buffer.add_string buf (string_of_int v ^ ",")) s
  in
  let p = Grp_node.own_priority nd in
  Buffer.add_string buf (string_of_int (Grp_node.id nd));
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Antlist.to_string (Grp_node.antlist nd));
  Buffer.add_string buf " v=";
  set (Grp_node.view nd);
  Buffer.add_string buf " q=";
  Node_id.Map.iter
    (fun v k -> Buffer.add_string buf (Printf.sprintf "%d:%d," v k))
    (Grp_node.quarantines nd);
  Buffer.add_string buf (Printf.sprintf " pr=%d.%d " p.Priority.oldness p.Priority.id);
  Buffer.add_string buf (Wire.to_string (Grp_node.make_message nd));
  Buffer.add_char buf '\n'

let round_digest ~node ids =
  let buf = Buffer.create 4096 in
  List.iter (fun v -> node_state buf (node v)) ids;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let vanet_digests () =
  let seed = 42 and n = 300 and range = 2.0 and speed = 0.15 and jitter = 0.1 in
  let rng = Rng.create seed in
  let mob =
    Mobility.create (Rng.split rng) ~n (Vanet.spec_of Vanet.Highway ~n ~range ~speed)
  in
  let config = Config.make ~dmax:3 () in
  let shard_of = Sharded.spatial_partition ~shards:2 ~range (Mobility.positions mob) in
  let t =
    Sharded.create ~config ~shards:2 ~jobs:2 ~seed ~shard_of (Mobility.graph mob ~range)
  in
  let ids = Sharded.node_ids t in
  let digest () = round_digest ~node:(Sharded.node t) ids in
  let warm =
    List.init 10 (fun _ ->
        ignore (Sharded.round ~jitter t);
        digest ())
  in
  let measured =
    List.init 40 (fun _ ->
        Mobility.step mob ~dt:1.0;
        Sharded.set_graph t (Mobility.graph mob ~range);
        ignore (Sharded.round ~jitter t);
        digest ())
  in
  warm @ measured

let converge_digests () =
  let seed = 3 and dmax = 3 in
  let g = Harness.rgg ~seed ~n:200 () in
  let t = Rounds.create ~config:(Config.make ~dmax ()) g in
  let ids = Rounds.node_ids t in
  let acc = ref [] in
  let on_round _ = acc := round_digest ~node:(Rounds.node t) ids :: !acc in
  ignore
    (Rounds.run_until_stable ~jitter:0.1 ~rng:(Rng.create seed) ~on_round t);
  List.rev !acc

let lossy_digests () =
  let seed = 5 in
  let t = Rounds.create ~config:(Config.make ~dmax:3 ()) (Harness.rgg ~seed ~n:30 ()) in
  let ids = Rounds.node_ids t and rng = Rng.create seed in
  List.init 60 (fun _ ->
      ignore (Rounds.round ~loss:0.1 ~corruption:0.05 ~sends:2 ~jitter:0.1 ~rng t);
      round_digest ~node:(Rounds.node t) ids)

let fuzz_reports ~coverage ~seed ~runs () =
  let acc = ref [] in
  let on_run _ _ r = acc := Oracle.report_to_json r :: !acc in
  ignore (Fuzz.campaign ~coverage ~seed ~runs ~max_actions:10 ~on_run ());
  List.rev !acc

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let fence fixture digests () =
  let actual = List.mapi (fun i d -> Printf.sprintf "%d %s" (i + 1) d) (digests ()) in
  let path = Filename.concat "fixtures" fixture in
  let expected = if Sys.file_exists path then read_lines path else [] in
  if actual <> expected then begin
    Out_channel.with_open_text (fixture ^ ".actual") (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff = function
      | a :: at, e :: et ->
          if a = e then first_diff (at, et) else Printf.sprintf "%S, expected %S" a e
      | a :: _, [] -> Printf.sprintf "extra line %S" a
      | [], e :: _ -> Printf.sprintf "missing line %S" e
      | [], [] -> "none"
    in
    Alcotest.failf "%s: lines diverge at %s (%d lines vs %d)" fixture
      (first_diff (actual, expected)) (List.length actual) (List.length expected)
  end

let suite =
  [
    ( "vanet n=300 highway (Sharded) per-round digests",
      `Quick,
      fence "vanet-n300-digests.expected" vanet_digests );
    ( "converge rgg n=200 s=3 (Rounds) per-round digests",
      `Quick,
      fence "converge-n200-digests.expected" converge_digests );
    ( "fuzz seed 42 250 runs per-scenario oracle reports",
      `Quick,
      fence "fuzz-seed42-reports.expected"
        (fuzz_reports ~coverage:false ~seed:42 ~runs:250) );
    ( "guided fuzz seed 7 250 runs per-scenario oracle reports",
      `Quick,
      fence "fuzz-guided-seed7-reports.expected"
        (fuzz_reports ~coverage:true ~seed:7 ~runs:250) );
    ( "lossy rgg n=30 s=5 (Rounds) per-round digests",
      `Quick,
      fence "lossy-rounds-n30-digests.expected" lossy_digests );
  ]
