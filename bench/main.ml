(* Benchmark harness.

   Two parts, both in this executable (DESIGN.md Section 3):

   1. Bechamel micro-benchmarks — one Test.make per experiment table,
      timing the elementary operation that dominates the corresponding
      experiment's inner loop (ant merge for E1/E2, a full compute step for
      E3, predicate checking for E4 — full and incremental, a mobility round
      for E5/E6, a lossy round for E7, an ablated compute for E8, the
      unit-disk graph rebuild — naive and spatial-grid — for E12).
   2. The experiment tables E1..E12 themselves (the evaluation the paper
      refers to; EXPERIMENTS.md records the measured outcomes).

   Usage:
     dune exec bench/main.exe -- [--quick] [--micro-only | --tables-only]
                                 [--jobs N] [--json PATH]

   --jobs N spreads the experiments' independent repetitions over N domains
   (output is identical to --jobs 1; see Dgs_parallel.Pool).  --json PATH
   additionally writes a machine-readable snapshot (schema 8) of the micro
   rows: ns/op and the r² of its OLS fit.  End-to-end timings come from perfbench/, the repository
   benchmark. *)

open Bechamel
open Toolkit
module Gen = Dgs_graph.Gen
module Graph = Dgs_graph.Graph
module Paths = Dgs_graph.Paths
module Rounds = Dgs_sim.Rounds
module P = Dgs_spec.Predicates
module Harness = Dgs_workload.Harness
module Experiments = Dgs_workload.Experiments
module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
open Dgs_core

(* --- the subjects --- *)

let bench_ant_merge =
  (* E1/E2 inner loop: one ant application on Dmax+1-level lists. *)
  let l1 =
    Antlist.of_levels
      (List.init 4 (fun i -> List.init 3 (fun j -> ((i * 3) + j, Mark.Clear))))
  in
  let l2 =
    Antlist.of_levels
      (List.init 4 (fun i -> List.init 3 (fun j -> ((i * 3) + j + 6, Mark.Clear))))
  in
  Test.make ~name:"e1/e2: ant merge (4 levels x 3)"
    (Staged.stage (fun () -> Antlist.ant l1 l2))

let bench_compute =
  (* E3 inner loop: one full compute() with 5 buffered neighbor messages. *)
  let config = Config.make ~dmax:3 () in
  let nodes = List.init 6 (fun i -> Grp_node.create ~config i) in
  let run_round () =
    let msgs = List.map Grp_node.make_message nodes in
    List.iter (fun n -> List.iter (Grp_node.receive n) msgs) nodes;
    List.iter (fun n -> ignore (Grp_node.compute n)) nodes
  in
  for _ = 1 to 5 do
    run_round ()
  done;
  let target = List.hd nodes in
  let msgs = List.map Grp_node.make_message (List.tl nodes) in
  Test.make ~name:"e3: compute() with 5 neighbors"
    (Staged.stage (fun () ->
         List.iter (Grp_node.receive target) msgs;
         Grp_node.compute target))

let bench_compute_traced =
  (* Tracing overhead on the E3 inner loop: the same compute() subject with
     an explicit null sink (what an untraced run pays) and a ring sink
     (cheapest real sink).  docs/OBSERVABILITY.md claims
     < 5% overhead for the null sink against the untraced baseline above;
     EXPERIMENTS.md records the measured numbers.

     The two ring-sink rows split the traced cost by provenance: the
     "provenance off" row feeds messages without lineage ids (every
     decision event carries cause = -1), "provenance on" attaches a
     packed lid to each received message ({!Grp_node.receive_lid}), so
     the delta is exactly the lineage-attribution bookkeeping the causal
     DAG rides on — the traced half of the <= 5% acceptance bar. *)
  let subject ~name ?(lid = fun _ -> None) trace =
    let config = Config.make ~dmax:3 () in
    let nodes = List.init 6 (fun i -> Grp_node.create ~config ~trace i) in
    for _ = 1 to 5 do
      let msgs = List.map Grp_node.make_message nodes in
      List.iter (fun n -> List.iter (Grp_node.receive n) msgs) nodes;
      List.iter (fun n -> ignore (Grp_node.compute n)) nodes
    done;
    let target = List.hd nodes in
    let msgs = List.map Grp_node.make_message (List.tl nodes) in
    Test.make ~name
      (Staged.stage (fun () ->
           List.iteri
             (fun i m ->
               match lid i with
               | Some l -> Grp_node.receive_lid target ~lid:l m
               | None -> Grp_node.receive target m)
             msgs;
           Grp_node.compute target))
  in
  [
    subject ~name:"e3: compute() null trace" Trace.null;
    subject ~name:"e3: compute() ring trace provenance off"
      (Trace.Ring.sink (Trace.Ring.create ~capacity:4096));
    subject ~name:"e3: compute() ring trace provenance on"
      ~lid:(fun i -> Some (((i + 2) lsl 20) lor 7))
      (Trace.Ring.sink (Trace.Ring.create ~capacity:4096));
  ]

let bench_compute_metrics =
  (* Metrics overhead on the E3 inner loop: the same compute() subject with
     the null registry (what a run without --metrics pays — the registry
     analogue of the null-trace row above) and with a live registry.  The
     acceptance bar is the disabled row within 2% of the plain compute()
     baseline; BENCH_*.json snapshots record the measured numbers. *)
  let subject ~name metrics =
    let config = Config.make ~dmax:3 () in
    let nodes = List.init 6 (fun i -> Grp_node.create ~config ~metrics i) in
    for _ = 1 to 5 do
      let msgs = List.map Grp_node.make_message nodes in
      List.iter (fun n -> List.iter (Grp_node.receive n) msgs) nodes;
      List.iter (fun n -> ignore (Grp_node.compute n)) nodes
    done;
    let target = List.hd nodes in
    let msgs = List.map Grp_node.make_message (List.tl nodes) in
    Test.make ~name
      (Staged.stage (fun () ->
           List.iter (Grp_node.receive target) msgs;
           Grp_node.compute target))
  in
  [
    subject ~name:"e3: compute() metrics disabled" Registry.null;
    subject ~name:"e3: compute() metrics registry" (Registry.create ());
  ]

let bench_ant_merge_metrics =
  (* E1/E2 inner loop under a live registry: fold_ant on a node carrying
     metered handles, against the unmetered merge row above. *)
  let subject ~name metrics =
    let config = Config.make ~dmax:3 () in
    let nodes = List.init 6 (fun i -> Grp_node.create ~config ~metrics i) in
    for _ = 1 to 5 do
      let msgs = List.map Grp_node.make_message nodes in
      List.iter (fun n -> List.iter (Grp_node.receive n) msgs) nodes;
      List.iter (fun n -> ignore (Grp_node.compute n)) nodes
    done;
    let target = List.hd nodes in
    let msg = Grp_node.make_message (List.nth nodes 1) in
    Test.make ~name
      (Staged.stage (fun () ->
           Grp_node.receive target msg;
           Grp_node.compute target))
  in
  [
    subject ~name:"e1/e2: merge step metrics disabled" Registry.null;
    subject ~name:"e1/e2: merge step metrics registry" (Registry.create ());
  ]

let bench_predicates =
  (* E4 inner loop: Ω extraction plus the full legitimacy check. *)
  let g = Gen.grid 4 4 in
  let t = Rounds.create ~config:(Config.make ~dmax:3 ()) g in
  let rng = Rng.create 1 in
  ignore (Rounds.run_until_stable ~jitter:0.1 ~rng ~confirm:8 ~max_rounds:2000 t);
  let c = Harness.snapshot t g in
  Test.make ~name:"e4: legitimate(grid4x4)"
    (Staged.stage (fun () -> P.legitimate ~dmax:3 c))

let bench_predicates_incremental =
  (* The same E4 subject through the incremental checker with warm caches:
     the steady-state cost of a poll that finds nothing dirty.  Cross-check
     disabled — it would re-run the full checker being compared against. *)
  let g = Gen.grid 4 4 in
  let t = Rounds.create ~config:(Config.make ~dmax:3 ()) g in
  let rng = Rng.create 1 in
  ignore (Rounds.run_until_stable ~jitter:0.1 ~rng ~confirm:8 ~max_rounds:2000 t);
  let c = Harness.snapshot t g in
  let inc = Dgs_spec.Incremental.create ~cross_check_limit:0 ~dmax:3 () in
  ignore (Dgs_spec.Incremental.check inc c);
  Test.make ~name:"e4: legitimate(grid4x4) incremental"
    (Staged.stage (fun () ->
         Dgs_spec.Incremental.legitimate (Dgs_spec.Incremental.check inc c)))

let bench_unit_disk =
  (* E12 inner loop: one unit-disk rebuild at n=2000 (mean degree ~8),
     naive all-pairs scan vs the spatial hash grid. *)
  let n = 2000 in
  let range = 2.0 in
  let side = Float.sqrt (float_of_int n *. Float.pi *. range *. range /. 8.0) in
  let rng = Rng.create 9 in
  let positions =
    Array.init n (fun _ ->
        Dgs_util.Geom.make (Rng.float rng side) (Rng.float rng side))
  in
  [
    Test.make ~name:"e12: of_positions grid (n=2000)"
      (Staged.stage (fun () -> Gen.of_positions positions ~range));
    Test.make ~name:"e12: of_positions naive (n=2000)"
      (Staged.stage (fun () -> Gen.of_positions_naive positions ~range));
  ]

let bench_diameter =
  (* Predicate substrate: diameter of a 25-node induced subgraph. *)
  let g = Gen.grid 5 5 in
  let set = Graph.Int_set.of_list (List.init 25 (fun i -> i)) in
  Test.make ~name:"substrate: diameter(grid5x5)"
    (Staged.stage (fun () -> Paths.diameter_of_set g set))

let bench_round =
  (* E5/E6 inner loop: one full protocol round on a 30-node network. *)
  let g = Harness.rgg ~seed:3 ~n:30 () in
  let t = Rounds.create ~config:(Config.make ~dmax:3 ()) g in
  let rng = Rng.create 2 in
  Test.make ~name:"e5/e6: protocol round (30 nodes)"
    (Staged.stage (fun () -> Rounds.round ~jitter:0.1 ~rng t))

let bench_lossy_round =
  (* E7 inner loop: a round with loss and two sends per period. *)
  let g = Harness.rgg ~seed:4 ~n:30 () in
  let t = Rounds.create ~config:(Config.make ~dmax:3 ()) g in
  let rng = Rng.create 3 in
  Test.make ~name:"e7: lossy round (30 nodes, 2 sends)"
    (Staged.stage (fun () -> Rounds.round ~jitter:0.1 ~loss:0.2 ~sends:2 ~rng t))

let bench_ablated_compute =
  (* E8 inner loop: compute() without joint admission, for the overhead
     comparison with the full variant above. *)
  let config = Config.make ~joint_admission_enabled:false ~dmax:3 () in
  let nodes = List.init 6 (fun i -> Grp_node.create ~config i) in
  for _ = 1 to 5 do
    let msgs = List.map Grp_node.make_message nodes in
    List.iter (fun n -> List.iter (Grp_node.receive n) msgs) nodes;
    List.iter (fun n -> ignore (Grp_node.compute n)) nodes
  done;
  let target = List.hd nodes in
  let other_msgs = List.map Grp_node.make_message (List.tl nodes) in
  Test.make ~name:"e8: compute() without joint admission"
    (Staged.stage (fun () ->
         List.iter (Grp_node.receive target) other_msgs;
         Grp_node.compute target))

let bench_wire =
  (* E7 corruption path: one encode + decode of a realistic frame. *)
  let config = Config.make ~dmax:3 () in
  let nodes = List.init 6 (fun i -> Grp_node.create ~config i) in
  for _ = 1 to 5 do
    let msgs = List.map Grp_node.make_message nodes in
    List.iter (fun n -> List.iter (Grp_node.receive n) msgs) nodes;
    List.iter (fun n -> ignore (Grp_node.compute n)) nodes
  done;
  let frame = Wire.to_string (Grp_node.make_message (List.hd nodes)) in
  Test.make ~name:"e7: wire encode+decode"
    (Staged.stage (fun () -> Wire.of_string frame))

let bench_churn_step =
  (* E10 inner loop: one round plus a graph snapshot check. *)
  let g = Harness.rgg ~seed:6 ~n:30 () in
  let t = Rounds.create ~config:(Config.make ~dmax:3 ()) g in
  let rng = Rng.create 4 in
  Rounds.run ~jitter:0.1 ~rng t 30;
  Test.make ~name:"e10: round + agreement check (30 nodes)"
    (Staged.stage (fun () ->
         ignore (Rounds.round ~jitter:0.1 ~rng t);
         Dgs_spec.Predicates.agreement (Harness.snapshot t g)))

let bench_maxmin =
  (* E6 baseline inner loop: one Max-Min reclustering of a 30-node graph. *)
  let g = Harness.rgg ~seed:5 ~n:30 () in
  Test.make ~name:"e6 baseline: maxmin(d=2, 30 nodes)"
    (Staged.stage (fun () -> Dgs_baselines.Maxmin.run ~d:2 g))

let bench_engine =
  (* Simulator datapath micro row: scheduling plus firing one closure
     event — the cost every timer and every directed copy pays. *)
  let module Engine = Dgs_sim.Engine in
  let e = Engine.create () in
  Test.make ~name:"engine: schedule+fire thunk"
    (Staged.stage (fun () ->
         Engine.schedule_after e 0.0 ignore;
         Engine.run_until e (Engine.now e)))

let bench_receive =
  (* The receive side of one directed copy: appending a message to the
     node's flat inbox (pure array writes once the buffer has grown). *)
  let config = Config.make ~dmax:3 () in
  let node = Grp_node.create ~config 1 in
  let peer = Grp_node.create ~config 2 in
  let msg = Grp_node.make_message peer in
  Test.make ~name:"grp: receive (flat inbox append)"
    (Staged.stage (fun () -> Grp_node.receive node msg))

let micro_benchmarks ~quick () =
  let tests =
    [ bench_ant_merge; bench_compute ]
    @ bench_compute_traced @ bench_compute_metrics @ bench_ant_merge_metrics
    @ [ bench_predicates; bench_predicates_incremental ]
    @ bench_unit_disk
    @ [
      bench_diameter;
      bench_round;
      bench_lossy_round;
      bench_ablated_compute;
      bench_wire;
      bench_churn_step;
      bench_maxmin;
    ]
    @ [ bench_engine; bench_receive ]
  in
  let quota = Time.second (if quick then 0.05 else 0.5) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 100) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  Printf.printf "== micro-benchmarks (ns per run, r² of the OLS fit) ==\n%!";
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let m = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock m in
          let ns =
            match Analyze.OLS.estimates est with Some [ x ] -> x | _ -> nan
          in
          let r2 = Option.value (Analyze.OLS.r_square est) ~default:nan in
          Printf.printf "%-45s %12.0f ns/run  r² %.4f\n%!" (Test.Elt.name elt) ns r2;
          (Test.Elt.name elt, ns, r2))
        (Test.elements test))
    tests

let write_json path ~micro =
  let b = Buffer.create 2048 in
  let tm = Unix.gmtime (Unix.time ()) in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"schema\": 8,\n  \"date\": \"%04d-%02d-%02dT%02d:%02d:%02dZ\",\n"
       (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
       tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec);
  Buffer.add_string b
    (Printf.sprintf "  \"cores\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string b "  \"micro_ns_per_op\": {\n";
  List.iteri
    (fun i (name, ns, r2) ->
      (* A fit that produced no estimate is [null], not a bare [nan]. *)
      let num fmt x = if Float.is_finite x then Printf.sprintf fmt x else "null" in
      Buffer.add_string b
        (Printf.sprintf "    %S: {\"ns\": %s, \"r2\": %s}%s\n" name
           (num "%.1f" ns) (num "%.4f" r2)
           (if i = List.length micro - 1 then "" else ",")))
    micro;
  Buffer.add_string b "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "benchmark snapshot written to %s\n%!" path

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let tables_only = List.mem "--tables-only" args in
  let micro_only = List.mem "--micro-only" args in
  let rec flag_value = function
    | f :: v :: _ when f = "--json" -> Some v
    | _ :: rest -> flag_value rest
    | [] -> None
  in
  let json_path = flag_value args in
  let rec jobs_value = function
    | f :: v :: _ when f = "--jobs" -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> if n = 0 then Dgs_parallel.Pool.default_jobs () else n
        | _ ->
            prerr_endline "bench: --jobs expects a non-negative integer";
            exit 2)
    | _ :: rest -> jobs_value rest
    | [] -> 1
  in
  let jobs = jobs_value args in
  let micro = if tables_only then [] else micro_benchmarks ~quick () in
  if not micro_only then
    List.iter (Experiments.run_and_print ~quick ~jobs) Experiments.all;
  Option.iter (write_json ~micro) json_path
