(* Sharded executor: partition invariance, the Rounds-equivalence anchor,
   and the byte-identical --jobs contract extended to one simulation. *)

module Rounds = Dgs_sim.Rounds
module Sharded = Dgs_sim.Sharded
module Graph = Dgs_graph.Graph
module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
module Harness = Dgs_workload.Harness
open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let config = Config.make ~dmax:3 ()

let views_equal a b =
  Node_id.Map.equal Node_id.Set.equal a b

let pp_views m =
  Node_id.Map.bindings m
  |> List.map (fun (v, s) ->
         Printf.sprintf "%d:{%s}" v
           (String.concat ","
              (List.map string_of_int (Node_id.Set.elements s))))
  |> String.concat " "

(* With jitter off the sharded executor must reproduce the plain Rounds
   schedule state-for-state: same messages, same computes, any shards. *)
let test_sharded_equals_rounds () =
  let g = Harness.rgg ~seed:5 ~n:24 () in
  let r = Rounds.create ~config g in
  Rounds.run r 12;
  let s = Sharded.create ~config ~shards:3 g in
  Sharded.run s 12;
  check "views match Rounds" true (views_equal (Rounds.views r) (Sharded.views s));
  check_int "messages match Rounds" (Rounds.messages_sent r) (Sharded.messages_sent s);
  check_int "one copy per directed edge per round"
    (12 * 2 * Graph.edge_count g) (Sharded.messages_sent s)

(* Traced, a run sends once per node per round, delivers every copy it
   counts, records nothing but events about its graph's nodes (the round
   runs without an event agenda) and stamps every event of round r with
   r, counting from 1. *)
let test_traced_round () =
  let g = Harness.rgg ~seed:5 ~n:24 () in
  let ring = Trace.Ring.create ~capacity:65536 in
  let s =
    Sharded.create ~config ~shards:2 ~make_trace:(fun _ -> Trace.Ring.sink ring) g
  in
  let ends =
    List.init 12 (fun _ ->
        ignore (Sharded.round s);
        Trace.Ring.seen ring)
  in
  let round_of k = 1 + List.length (List.filter (fun e -> e <= k) ends) in
  check "every event stamped with its round" true
    (List.for_all2
       (fun k (time, _) -> time = float_of_int (round_of k))
       (List.init (Trace.Ring.length ring) Fun.id)
       (Trace.Ring.contents ring));
  let count kind =
    List.length
      (List.filter (fun (_, ev) -> Trace.kind ev = kind) (Trace.Ring.contents ring))
  in
  check_int "ring kept every event" (Trace.Ring.seen ring) (Trace.Ring.length ring);
  check_int "one Msg_sent per node per round" (24 * 12) (count "Msg_sent");
  check_int "every counted copy delivered (loss 0)"
    (Sharded.messages_sent s) (count "Msg_delivered");
  check "every event is about a graph node" true
    (List.for_all
       (fun (_, ev) -> Graph.mem_node g (Trace.node_of ev))
       (Trace.Ring.contents ring))

(* The jitter probability is checked before the round runs, NaN
   included. *)
let test_round_rejects_bad_jitter () =
  let s = Sharded.create ~config (Harness.rgg ~seed:5 ~n:12 ()) in
  List.iter
    (fun jitter ->
      Alcotest.check_raises (Printf.sprintf "jitter %g" jitter)
        (Invalid_argument "Sharded.round: jitter out of [0,1]") (fun () ->
          ignore (Sharded.round ~jitter s)))
    [ Float.nan; 1.5; -0.1 ];
  check_int "no rejected round ran" 0 (Sharded.messages_sent s)

(* A caller channel or several sends would make a run depend on the
   partition, so a runner with several shards refuses them before the
   round runs. *)
let test_step_needs_one_shard () =
  let s = Sharded.create ~config ~shards:2 (Harness.rgg ~seed:5 ~n:12 ()) in
  let all _ = true in
  List.iter
    (fun (what, step) ->
      Alcotest.check_raises what
        (Invalid_argument "Sharded.step: a channel or sends > 1 needs a single shard")
        (fun () -> ignore (step ())))
    [
      ("sends 2", fun () -> Sharded.step ~sends:2 ~active:all s);
      ( "channel",
        fun () -> Sharded.step ~channel:(fun _ -> Sharded.Deliver) ~active:all s );
    ];
  check_int "no rejected round ran" 0 (Sharded.messages_sent s)

(* The schedule is the caller's: the channel sees every copy in
   (send, src, dst) order, and only the active nodes compute while the
   others keep their messages. *)
let test_step_schedule () =
  let s = Sharded.create ~config (Dgs_graph.Gen.line 3) in
  let senders = ref [] in
  let channel msg =
    let src = msg.Message.sender in
    senders := src :: !senders;
    if src = 0 then Sharded.Lose else Sharded.Deliver
  in
  let infos = Sharded.step ~sends:2 ~channel ~active:(fun v -> v = 1) s in
  let copies = [ 0; 1; 1; 2 ] in
  Alcotest.(check (list int)) "copy order by sender" (copies @ copies) (List.rev !senders);
  Alcotest.(check (list int)) "only node 1 computed" [ 1 ]
    (List.map fst (Node_id.Map.bindings infos));
  check_int "every transmission counted" 8 (Sharded.messages_sent s);
  List.iter
    (fun (v, senders) ->
      Alcotest.(check (list int))
        (Printf.sprintf "node %d pending" v)
        senders
        (Node_id.Set.elements (Grp_node.pending_senders (Sharded.node s v))))
    [ (0, [ 1 ]); (1, []); (2, [ 1 ]) ]

(* On the path 0-5-1-4-2-3, breadth-first order is not id order.  A
   shard asks [active] of each of its nodes once, in ascending id order
   and before any compute, then runs the active nodes' computes
   breadth-first over its own subgraph from its smallest id: 0 5 1 4 2 3
   on one shard; on two (even and odd ids), 0 2 4 and 1 5 3, since 4-2
   and 5-1 are the only edges inside a shard.  A round-1 compute traces
   a merge attempt per sender, which shows the compute order. *)
let test_breadth_first_computes () =
  let g = Graph.of_edges [ (0, 5); (5, 1); (1, 4); (4, 2); (2, 3) ] in
  List.iter
    (fun (shards, asked, computed) ->
      let rings = Array.init shards (fun _ -> Trace.Ring.create ~capacity:1024) in
      let s =
        Sharded.create ~config ~shards ~make_trace:(fun sx -> Trace.Ring.sink rings.(sx)) g
      in
      let calls = ref [] in
      let infos =
        Sharded.step s ~active:(fun v ->
            calls := v :: !calls;
            v <> 4)
      in
      let name what = Printf.sprintf "%d shard(s): %s" shards what in
      Alcotest.(check (list int)) (name "active asked in id order") asked (List.rev !calls);
      Alcotest.(check (list int)) (name "exactly the active nodes computed") [ 0; 1; 2; 3; 5 ]
        (List.map fst (Node_id.Map.bindings infos));
      let order =
        Array.to_list rings
        |> List.concat_map (fun ring ->
               List.fold_left
                 (fun acc (_, ev) ->
                   match ev with
                   | Trace.Merge_attempt { node; _ } when acc = [] || List.hd acc <> node ->
                       node :: acc
                   | _ -> acc)
                 [] (Trace.Ring.contents ring)
               |> List.rev)
      in
      Alcotest.(check (list int)) (name "computes breadth-first") computed order)
    [
      (1, [ 0; 1; 2; 3; 4; 5 ], [ 0; 5; 1; 2; 3 ]);
      (2, [ 0; 2; 4; 1; 3; 5 ], [ 0; 2; 1; 5; 3 ]);
    ]

(* A traced highway under churn, its topology replaced every round and its
   computes jittered, writes the same trace lines at every shard and job
   count once the per-shard sinks are merged: every event is emitted once,
   by the shard of the node it is about. *)
let test_traced_highway_lines () =
  let n = 60 and range = 2.0 in
  let module Vanet = Dgs_workload.Vanet in
  let module Mobility = Dgs_mobility.Mobility in
  let lines (shards, jobs) =
    let mob =
      Mobility.create (Rng.create 3) ~n (Vanet.spec_of Vanet.Highway ~n ~range ~speed:0.15)
    in
    let rings = Array.init shards (fun _ -> Trace.Ring.create ~capacity:200_000) in
    let s =
      Sharded.create ~config ~shards ~jobs ~seed:3
        ~shard_of:(Sharded.spatial_partition ~shards ~range (Mobility.positions mob))
        ~make_trace:(fun sx -> Trace.Ring.sink rings.(sx))
        (Mobility.graph mob ~range)
    in
    for _ = 1 to 15 do
      Mobility.step mob ~dt:1.0;
      Sharded.set_graph s (Mobility.graph mob ~range);
      ignore (Sharded.round ~jitter:0.1 s)
    done;
    Array.iter
      (fun r -> check_int "ring kept every event" (Trace.Ring.seen r) (Trace.Ring.length r))
      rings;
    Array.to_list rings
    |> List.concat_map Trace.Ring.contents
    |> List.map (fun (t, ev) -> Trace.Jsonl.to_string t ev)
    |> List.sort String.compare
  in
  let reference = lines (1, 1) in
  check "the trace holds view changes" true
    (List.exists (fun l -> Str_helpers.contains l "View_changed") reference);
  List.iter
    (fun ((shards, jobs) as sj) ->
      Alcotest.(check (list string))
        (Printf.sprintf "shards=%d jobs=%d writes the shards=1 lines" shards jobs)
        reference (lines sj))
    [ (2, 1); (2, 2); (4, 2) ]

(* Degenerate partitions: everything on one shard, and one node per
   shard, bracket the partition space. *)
let test_degenerate_partitions () =
  let n = 18 in
  let g = Harness.rgg ~seed:9 ~n () in
  let run ~shards ~shard_of =
    let s = Sharded.create ~config ~shards ~shard_of ~seed:3 g in
    Sharded.run ~jitter:0.3 s 10;
    Sharded.views s
  in
  let reference = run ~shards:1 ~shard_of:(fun _ -> 0) in
  let all_in_one = run ~shards:4 ~shard_of:(fun _ -> 0) in
  let one_per_node = run ~shards:n ~shard_of:(fun v -> v) in
  Alcotest.(check string)
    "all nodes on one of four shards" (pp_views reference) (pp_views all_in_one);
  Alcotest.(check string)
    "one node per shard" (pp_views reference) (pp_views one_per_node)

(* The barrier invariant, property-tested: for random connected
   topologies, random partitions and a topology change mid-run, sharded
   execution produces the same per-node final views as the single-shard
   run. *)
let prop_partition_invariant =
  let gen =
    QCheck.Gen.(
      let* n = int_range 4 20 in
      let* seed = int_range 1 1000 in
      let* shards = int_range 1 5 in
      let* assignment = list_repeat n (int_range 0 (shards - 1)) in
      let* rounds = int_range 2 8 in
      let* jitter = oneofl [ 0.0; 0.3 ] in
      return (n, seed, shards, Array.of_list assignment, rounds, jitter))
  in
  let print (n, seed, shards, assignment, rounds, jitter) =
    Printf.sprintf "n=%d seed=%d shards=%d rounds=%d jitter=%g assignment=[%s]"
      n seed shards rounds jitter
      (String.concat ";" (Array.to_list (Array.map string_of_int assignment)))
  in
  QCheck.Test.make ~count:40
    ~name:"barrier invariant: any partition = single-shard views"
    (QCheck.make ~print gen)
    (fun (n, seed, shards, assignment, rounds, jitter) ->
      let g0 = Harness.rgg ~seed ~n () in
      let g1 = Harness.rgg ~seed:(seed + 1) ~n () in
      let run ~shards ~shard_of =
        let s = Sharded.create ~config ~shards ~shard_of ~seed g0 in
        Sharded.run ~jitter s rounds;
        Sharded.set_graph s g1;
        Sharded.run ~jitter s rounds;
        (Sharded.views s, Sharded.messages_sent s)
      in
      let vs_ref, sent_ref = run ~shards:1 ~shard_of:(fun _ -> 0) in
      let vs, sent =
        run ~shards ~shard_of:(fun v -> if v < Array.length assignment then assignment.(v) else 0)
      in
      views_equal vs_ref vs && sent_ref = sent)

(* The --jobs contract on one simulation: identical views, message
   counts, merged metrics snapshots (byte-for-byte) and summed trace
   event counts for jobs ∈ {1, 2, 4}. *)
let test_jobs_byte_identity () =
  let n = 40 in
  let g0 = Harness.rgg ~seed:21 ~n () in
  let g1 = Harness.rgg ~seed:22 ~n () in
  let kinds =
    [ "Msg_sent"; "Msg_delivered"; "Mark_set"; "Quarantine_enter"; "View_changed" ]
  in
  let run jobs =
    let shards = 4 in
    let registries = Array.init shards (fun _ -> Registry.create ()) in
    let rings = Array.init shards (fun _ -> Trace.Ring.create ~capacity:65536) in
    let s =
      Sharded.create ~config ~shards ~jobs ~seed:7
        ~shard_of:(fun v -> v * shards / n)
        ~make_trace:(fun sx -> Trace.Ring.sink rings.(sx))
        ~make_metrics:(fun sx -> registries.(sx))
        g0
    in
    Sharded.run ~jitter:0.2 s 8;
    Sharded.set_graph s g1;
    Sharded.run ~jitter:0.2 s 8;
    let merged =
      Registry.merge (Array.to_list (Array.map Registry.snapshot registries))
    in
    Array.iter
      (fun r -> check_int "ring kept every event" (Trace.Ring.seen r) (Trace.Ring.length r))
      rings;
    let events = Array.to_list rings |> List.concat_map Trace.Ring.contents in
    let counts =
      List.map
        (fun kind ->
          List.length (List.filter (fun (_, ev) -> Trace.kind ev = kind) events))
        kinds
    in
    ( pp_views (Sharded.views s),
      Sharded.messages_sent s,
      Registry.counters_to_json merged,
      counts )
  in
  let views1, sent1, counters1, counts1 = run 1 in
  List.iter
    (fun jobs ->
      let views, sent, counters, counts = run jobs in
      Alcotest.(check string)
        (Printf.sprintf "views jobs=%d" jobs) views1 views;
      check_int (Printf.sprintf "messages jobs=%d" jobs) sent1 sent;
      Alcotest.(check string)
        (Printf.sprintf "merged counters byte-identical jobs=%d" jobs)
        counters1 counters;
      Alcotest.(check (list int))
        (Printf.sprintf "trace event counts jobs=%d" jobs) counts1 counts)
    [ 2; 4 ];
  (* Non-vacuity: the runs actually traced and metered something. *)
  check "traced events" true (List.exists (fun c -> c > 0) counts1);
  check "metered counters" true (String.length counters1 > 2)

(* spatial_partition cuts the cell order into contiguous, roughly equal,
   non-empty slabs. *)
let test_spatial_partition () =
  let n = 90 in
  (* A line of nodes spaced 0.4 apart: cells of side 2.0 hold 5 nodes
     each, so cuts can only land every 5 nodes. *)
  let positions =
    Array.init n (fun i -> { Dgs_util.Geom.x = 0.4 *. float_of_int i; y = 0.0 })
  in
  let shards = 3 in
  let part = Sharded.spatial_partition ~shards ~range:2.0 positions in
  let counts = Array.make shards 0 in
  let monotone = ref true in
  for i = 0 to n - 1 do
    let sx = part i in
    check "assignment in range" true (sx >= 0 && sx < shards);
    counts.(sx) <- counts.(sx) + 1;
    if i > 0 && part (i - 1) > sx then monotone := false
  done;
  check "slabs follow the line" true !monotone;
  Array.iteri
    (fun sx c ->
      check (Printf.sprintf "shard %d non-empty and balanced" sx) true
        (c >= 25 && c <= 35))
    counts;
  check_int "cuts only at cell boundaries" 0
    (Array.to_list (Array.init (n - 1) (fun i -> i))
    |> List.filter (fun i ->
           part i <> part (i + 1) && (0.4 *. float_of_int (i + 1)) /. 2.0 <> Float.round ((0.4 *. float_of_int (i + 1)) /. 2.0))
    |> List.length);
  check_int "unknown ids map to shard 0" 0 (part (n + 5))

(* CI smoke for the full vanet pipeline: a small sharded scenario at
   jobs=2 must produce the jobs=1 report — verdicts, counts, topology
   and oracle counters alike — apart from the jobs and shards it records. *)
let test_vanet_jobs_smoke () =
  let run jobs =
    Dgs_workload.Vanet.run ~seed:11 ~rounds:8 ~warmup:5 ~jobs
      ~scenario:Dgs_workload.Vanet.Highway ~n:120 ()
  in
  let r1 = run 1 and r2 = run 2 in
  check_int "jobs recorded" 2 r2.Dgs_workload.Vanet.jobs;
  check_int "shards follow jobs" 2 r2.Dgs_workload.Vanet.shards;
  Alcotest.(check bool) "vanet jobs=2 report matches jobs=1" true
    ({ r2 with jobs = 1; shards = 1 } = r1)

(* Under steady churn the per-node protocol state is flat, so the
   network's footprint must be too: no buffer of a node may pile up
   messages its computes already read.  The sharded runner reaches every
   node, so its reachable size is that footprint. *)
let test_heap_flat_under_churn () =
  let n = 300 and range = 2.0 and jitter = 0.1 in
  let module Vanet = Dgs_workload.Vanet in
  let module Mobility = Dgs_mobility.Mobility in
  let mob =
    Mobility.create (Rng.create 1) ~n (Vanet.spec_of Vanet.Highway ~n ~range ~speed:0.15)
  in
  let s = Sharded.create ~config ~seed:1 (Mobility.graph mob ~range) in
  let run_to r0 r1 =
    for _ = r0 + 1 to r1 do
      Mobility.step mob ~dt:1.0;
      Sharded.set_graph s (Mobility.graph mob ~range);
      ignore (Sharded.round ~jitter s)
    done;
    Obj.reachable_words (Obj.repr s)
  in
  let w30 = run_to 0 30 in
  let w150 = run_to 30 150 in
  if float_of_int w150 > 1.15 *. float_of_int w30 then
    Alcotest.failf "reachable words grew from %d at round 30 to %d at round 150" w30 w150

let suite =
  [
    ("sharded equals rounds at jitter 0", `Quick, test_sharded_equals_rounds);
    ("traced round sends, delivers, no engine", `Quick, test_traced_round);
    ( "traced highway lines match across shards and jobs",
      `Quick,
      test_traced_highway_lines );
    ("round rejects a NaN or out-of-range jitter", `Quick, test_round_rejects_bad_jitter);
    ("step needs one shard for a channel or sends", `Quick, test_step_needs_one_shard);
    ("step follows the caller's schedule", `Quick, test_step_schedule);
    ("computes run breadth-first, active asked in id order", `Quick, test_breadth_first_computes);
    ("vanet --jobs smoke", `Quick, test_vanet_jobs_smoke);
    ("heap stays flat under churn", `Quick, test_heap_flat_under_churn);
    ("degenerate partitions", `Quick, test_degenerate_partitions);
    ("jobs byte identity", `Quick, test_jobs_byte_identity);
    ("spatial partition slabs", `Quick, test_spatial_partition);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_partition_invariant ]
