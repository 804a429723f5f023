(* Self-stabilization under faults and churn, on the event-driven runtime.

   This example uses the timer-based Net (rather than the synchronous round
   runner) to show the protocol in its natural habitat: asynchronous
   timers, delivery delays and message loss.  It then injects the faults of
   the paper's model — corrupted memory, a rebooted node, a node that
   disappears and comes back with stale state — and watches the system
   recover by itself.

   Run with: dune exec examples/churn_recovery.exe *)

module Gen = Dgs_graph.Gen
module Net = Dgs_sim.Net
module Cfg = Dgs_spec.Configuration
module P = Dgs_spec.Predicates
open Dgs_core

let dmax = 2

let report net graph label =
  (* Inactive nodes are out of the radio network: the specification is
     evaluated over the active topology. *)
  let graph = Dgs_graph.Graph.copy graph in
  List.iter
    (fun v -> if not (Net.is_active net v) then Dgs_graph.Graph.remove_node graph v)
    (Dgs_graph.Graph.nodes graph);
  let c = Cfg.make ~graph ~views:(Net.views net) in
  Format.printf "%-34s groups:" label;
  List.iter (fun g -> Format.printf " %a" Node_id.pp_set g) (Cfg.groups c);
  (match P.legitimate ~dmax c with
  | None -> Format.printf "  [legitimate]"
  | Some v -> Format.printf "  [%a]" P.pp_violation v);
  Format.printf "@."

let settle net until = Net.run_until net until

let () =
  let graph = Gen.grid 3 3 in
  let rng = Dgs_util.Rng.create 7 in
  let net =
    Net.create ~rng
      ~config:(Config.make ~dmax ())
      ~loss:0.02
      ~topology:(fun () -> graph)
      ~nodes:(Dgs_graph.Graph.nodes graph)
      ()
  in
  settle net 120.0;
  report net graph "after initial convergence";

  (* Fault 1: corrupt a node's protocol memory (arbitrary list, view and
     priorities) — the transient fault of the self-stabilization model. *)
  let victim = Net.node net 4 in
  Grp_node.corrupt_list victim
    (Antlist.of_levels [ [ (4, Mark.Clear) ]; [ (99, Mark.Clear) ]; [ (0, Mark.Double) ] ]);
  Grp_node.corrupt_view victim (Node_id.set_of_list [ 4; 99; 0 ]);
  Grp_node.corrupt_priority victim (Priority.make ~oldness:0 ~id:4);
  report net graph "memory of node 4 corrupted";
  settle net 180.0;
  report net graph "recovered from corruption";

  (* Fault 2: a node dies and a fresh one reboots in its place. *)
  Net.deactivate net 8;
  settle net 220.0;
  report net graph "node 8 crashed";
  Net.reset_node net 8;
  Net.activate net 8;
  settle net 280.0;
  report net graph "node 8 rebooted and re-admitted";

  (* Fault 3: a node vanishes and returns later with stale state. *)
  Net.deactivate net 0;
  settle net 330.0;
  report net graph "node 0 away";
  Net.activate net 0;
  settle net 400.0;
  report net graph "node 0 back with stale memory";

  let stats = Net.stats net in
  Printf.printf
    "\n%d computes, %d broadcasts, %d deliveries, %d lost frames, %d evictions\n"
    stats.Net.computes stats.Net.broadcasts stats.Net.deliveries stats.Net.losses
    stats.Net.view_removals
