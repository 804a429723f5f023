(* Shared pieces of the benchmark: op records, the workload interface,
   the in-memory span recorder of the traced pass, and small statistics. *)

module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names
module Chrome_trace = Dgs_trace.Chrome_trace

let now = Unix.gettimeofday

(* One operation of a workload, as timed by the workload itself: the
   bench-side bookkeeping a workload does between ops (verdict accounting,
   traced replays) is kept out of [wall_s]. *)
type op = {
  wall_s : float;
  node_rounds : int;  (** compute periods simulated, summed over nodes *)
  failed : bool;
}

(* A set-up workload, ready to run ops.  [counters] are the deterministic
   outcomes (rounds, evictions, messages, ...) that a traced and an
   untraced pass over the same ops must reproduce exactly; [layers] are
   the per-layer metrics of a traced pass; [check] runs the end-of-run
   correctness cross-checks and returns the problems found. *)
type pass = {
  op : int -> op;
  counters : unit -> (string * int) list;
  layers : unit -> (string * float) list;
  check : unit -> string list;
  summary : unit -> string;
}

type workload = {
  name : string;
  fixed_ops : int;
      (** ops of a [--quick] run; live_heap_mb is read after this many ops
          of every run, so it does not depend on how many ops a run
          completes *)
  setup : traced:bool -> quick:bool -> seed:int -> spans:spans -> pass;
}

(* Spans of the traced pass, kept in memory and written once as a Chrome
   trace.  Per-name totals feed the per-layer self times. *)
and spans = {
  on : bool;
  origin : float;
  mutable list : Chrome_trace.span list;
  totals : (string, float ref) Hashtbl.t;
}

let spans_off = { on = false; origin = 0.0; list = []; totals = Hashtbl.create 1 }
let spans_create () = { on = true; origin = now (); list = []; totals = Hashtbl.create 16 }

let span s name t0 t1 =
  if s.on then begin
    s.list <-
      { Chrome_trace.name; ts_us = (t0 -. s.origin) *. 1e6; dur_us = (t1 -. t0) *. 1e6; tid = 0 }
      :: s.list;
    match Hashtbl.find_opt s.totals name with
    | Some r -> r := !r +. (t1 -. t0)
    | None -> Hashtbl.add s.totals name (ref (t1 -. t0))
  end

let timed s name f =
  let t0 = now () in
  let r = f () in
  span s name t0 (now ());
  r

(* Drop what set-up recorded, so totals cover the measured ops only. *)
let spans_reset s =
  s.list <- [];
  Hashtbl.reset s.totals

let span_total s name =
  match Hashtbl.find_opt s.totals name with Some r -> !r | None -> 0.0

let write_spans s path =
  Chrome_trace.write path ~thread_names:[ (0, "perfbench") ] (List.rev s.list)

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per_knr x node_rounds = 1000.0 *. ratio (float_of_int x) (float_of_int node_rounds)
let us_per x node_rounds = 1e6 *. ratio x (float_of_int node_rounds)

(* The dgs_core layer as the metrics registry saw it since [base], the
   snapshot taken when set-up ended. *)
let core_layers ?(base = Registry.merge []) reg ~node_rounds =
  let snap = Registry.snapshot reg in
  let counter (s : Registry.snapshot) name =
    Option.value ~default:0 (List.assoc_opt name s.Registry.counters)
  in
  let timer (s : Registry.snapshot) name =
    match List.assoc_opt name s.Registry.timers with
    | Some t -> t.Registry.total_ns /. 1e9
    | None -> 0.0
  in
  let c name = counter snap name - counter base name in
  let timer_s name = timer snap name -. timer base name in
  let computes = c Names.grp_compute_total in
  let hits = c Names.grp_compute_cache_hit_total in
  let misses = c Names.grp_compute_cache_miss_total in
  let compute_s = timer_s Names.grp_compute_ns in
  ( compute_s,
    [
      ("core.compute_us_per_node_round", us_per compute_s node_rounds);
      ("core.compute_us_per_call", us_per compute_s computes);
      ("core.fold_us_per_call", us_per (timer_s Names.grp_fold_ns) misses);
      ("core.fold_cache_hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)));
      ( "core.ant_merges_per_compute",
        ratio (float_of_int (c Names.grp_ant_merge_total)) (float_of_int computes) );
      ( "core.restrict_clear_per_compute",
        ratio (float_of_int (c Names.grp_restrict_clear_total)) (float_of_int computes) );
      ("core.view_removes_per_knr", per_knr (c Names.grp_view_remove_total) node_rounds);
      ("core.view_adds_per_knr", per_knr (c Names.grp_view_add_total) node_rounds);
      ("core.contest_wins_per_knr", per_knr (c Names.grp_contest_win_total) node_rounds);
      ( "core.quarantine_enters_per_knr",
        per_knr (c Names.grp_quarantine_enter_total) node_rounds );
      ( "core.gate_convictions_per_knr",
        per_knr (c Names.grp_gate_conviction_total) node_rounds );
    ] )

(* One Sharded round.  In a traced pass its broadcast, barrier and
   deliver+compute legs, read off the runner's phase accessors, are laid
   end to end under a sim.round span, as Vanet.run's profile lane does. *)
let sharded_round spans sh ~jitter =
  let module Sharded = Dgs_sim.Sharded in
  if not spans.on then Sharded.round ~jitter sh
  else begin
    let b0 = Sharded.broadcast_s sh
    and bar0 = Sharded.barrier_s sh
    and d0 = Sharded.deliver_s sh in
    let t0 = now () in
    let infos = Sharded.round ~jitter sh in
    let t1 = now () in
    let b = Sharded.broadcast_s sh -. b0
    and bar = Sharded.barrier_s sh -. bar0
    and d = Sharded.deliver_s sh -. d0 in
    span spans "sim.round" t0 t1;
    span spans "sim.broadcast" t0 (t0 +. b);
    span spans "sim.barrier" (t0 +. b) (t0 +. b +. bar);
    span spans "sim.deliver_compute" (t0 +. b +. bar) (t0 +. b +. bar +. d);
    infos
  end

(* The dgs_sim layer of a Sharded pass: the runner's own time is the
   round minus protocol compute; delivery is the deliver+compute leg
   minus compute. *)
let sharded_layers spans ~compute_s ~messages ~node_rounds =
  [
    ("sim.messages_per_node_round", ratio (float_of_int messages) (float_of_int node_rounds));
    ( "sim.runner_self_us_per_node_round",
      us_per (span_total spans "sim.round" -. compute_s) node_rounds );
    ("sim.broadcast_us_per_node_round", us_per (span_total spans "sim.broadcast") node_rounds);
    ( "sim.delivery_us_per_node_round",
      us_per (span_total spans "sim.deliver_compute" -. compute_s) node_rounds );
  ]

(* An eviction is unjustified when the evicting node's view before the
   round still had diameter <= Dmax in the graph the round ran on: nothing
   in the topology forced it.  The pre-round view is recovered from the
   step info as (view \ added) ∪ removed. *)
let unjustified_evictions ~dmax graph view (i : Dgs_core.Grp_node.step_info) =
  let open Dgs_core in
  if Node_id.Set.is_empty i.Grp_node.view_removed then 0
  else
    let before =
      Node_id.Set.union (Node_id.Set.diff view i.Grp_node.view_added) i.Grp_node.view_removed
    in
    if Dgs_graph.Paths.diameter_of_set graph before <= dmax then
      Node_id.Set.cardinal i.Grp_node.view_removed
    else 0
