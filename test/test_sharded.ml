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
   counts, and records no engine bookkeeping: the round runs without an
   event agenda. *)
let test_traced_round () =
  let g = Harness.rgg ~seed:5 ~n:24 () in
  let ring = Trace.Ring.create ~capacity:65536 in
  let s = Sharded.create ~config ~make_trace:(fun _ -> Trace.Ring.sink ring) g in
  Sharded.run s 12;
  let count kind =
    List.length
      (List.filter (fun (_, ev) -> Trace.kind ev = kind) (Trace.Ring.contents ring))
  in
  check_int "ring kept every event" (Trace.Ring.seen ring) (Trace.Ring.length ring);
  check_int "one Msg_sent per node per round" (24 * 12) (count "Msg_sent");
  check_int "every counted copy delivered (loss 0)"
    (Sharded.messages_sent s) (count "Msg_delivered");
  check_int "no engine events" 0 (count "Event_scheduled" + count "Event_fired")

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
   and oracle cache alike — apart from the jobs and shards it records. *)
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

let suite =
  [
    ("sharded equals rounds at jitter 0", `Quick, test_sharded_equals_rounds);
    ("traced round sends, delivers, no engine", `Quick, test_traced_round);
    ("vanet --jobs smoke", `Quick, test_vanet_jobs_smoke);
    ("degenerate partitions", `Quick, test_degenerate_partitions);
    ("jobs byte identity", `Quick, test_jobs_byte_identity);
    ("spatial partition slabs", `Quick, test_spatial_partition);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_partition_invariant ]
