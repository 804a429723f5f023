module Graph = Dgs_graph.Graph
module Gen = Dgs_graph.Gen
module Rounds = Dgs_sim.Rounds
module Cfg = Dgs_spec.Configuration
module P = Dgs_spec.Predicates
module Membership = Dgs_spec.Membership
module Mobility = Dgs_mobility.Mobility
module Rng = Dgs_util.Rng
open Dgs_core

let snapshot t graph = Cfg.make ~graph ~views:(Rounds.views t)

module Snapshotter = struct
  type t = { mutable views : Node_id.Set.t Node_id.Map.t }

  let create () = { views = Node_id.Map.empty }

  (* Views are immutable sets replaced wholesale when a node's view changes,
     so pointer equality against the previous snapshot detects "unchanged"
     in O(1) and the persistent map shares every untouched subtree.  A poll
     over n nodes with k view changes costs O(n) pointer checks plus
     O(k log n) rebuilt map spine, instead of building an n-entry map. *)
  let snapshot_views s ~ids ~view graph =
    let views =
      List.fold_left
        (fun acc v ->
          let view = view v in
          match Node_id.Map.find_opt v acc with
          | Some old when old == view -> acc
          | _ -> Node_id.Map.add v view acc)
        s.views ids
    in
    (* Departed nodes leave stale entries behind; prune only when any
       exist, so the steady state stays allocation-free. *)
    let views =
      if Node_id.Map.cardinal views > List.length ids then
        List.fold_left
          (fun acc v -> Node_id.Map.add v (Node_id.Map.find v views) acc)
          Node_id.Map.empty ids
      else views
    in
    s.views <- views;
    Cfg.make ~graph ~views

  let snapshot s runner graph =
    snapshot_views s ~ids:(Rounds.node_ids runner)
      ~view:(fun v -> Grp_node.view (Rounds.node runner v))
      graph
end

type convergence = {
  rounds : int option;
  messages : int;
  legitimate : bool;
  violation : P.violation option;
  agree_safe : bool;
  groups : int;
  mean_group_size : float;
}

let group_stats c =
  let groups = Cfg.groups c in
  let n = List.length groups in
  let mean =
    if n = 0 then 0.0
    else
      float_of_int
        (List.fold_left (fun acc g -> acc + Node_id.Set.cardinal g) 0 groups)
      /. float_of_int n
  in
  (n, mean)

let mergeable_pairs ~dmax c =
  let groups = Cfg.groups c in
  let rec count = function
    | [] -> 0
    | g :: rest ->
        List.length
          (List.filter
             (fun g' -> P.group_diameter_ok ~dmax c.Cfg.graph (Node_id.Set.union g g'))
             rest)
        + count rest
  in
  count groups

let converge ?(jitter = 0.1) ?(max_rounds = 5000) ?trace ?metrics
    ~config ~seed graph =
  let t = Rounds.create ~config ?trace ?metrics graph in
  let rng = Rng.create seed in
  let rounds = Rounds.run_until_stable ~jitter ~rng ~max_rounds t in
  let c = snapshot t graph in
  let groups, mean_group_size = group_stats c in
  let violation = P.legitimate ~dmax:config.Config.dmax c in
  {
    rounds;
    messages = Rounds.messages_sent t;
    legitimate = violation = None;
    violation;
    agree_safe =
      P.agreement c = None && P.safety ~dmax:config.Config.dmax c = None;
    groups;
    mean_group_size;
  }

type mobility_run = {
  steps : int;
  pt_preserving : int;
  pt_violating : int;
  evictions_under_pt : int;
  mean_groups : float;
  mean_group_size : float;
  churn : Membership.summary;
}

(* Every mobility run is one unit-time step per round, over a unit-disk
   graph of radius 2, under jitter 0.1. *)
let jitter = 0.1 and range = 2.0 and dt = 1.0

let run_mobility ?(warmup = 30) ?trace ?metrics ~config ~seed ~spec ~n ~rounds () =
  let rng = Rng.create seed in
  let mob = Mobility.create (Rng.split rng) ~n spec in
  let t = Rounds.create ~config ?trace ?metrics (Mobility.graph mob ~range) in
  Rounds.run ~jitter ~rng t warmup;
  let dmax = config.Config.dmax in
  let ledger = Membership.create ~dmax (snapshot t (Rounds.graph t)) in
  let pt_preserving = ref 0
  and pt_violating = ref 0
  and evictions_under_pt = ref 0
  and group_count_sum = ref 0.0
  and group_size_sum = ref 0.0 in
  (* ΠT attribution is per node: a node's transition is clean when its own
     view keeps induced diameter <= Dmax in the new topology (the ledger's
     [breached]).  The protocol reacts to a breach with up to 2*Dmax+2
     computes of lag (mark propagation, quarantine, the compute pipeline),
     so an eviction counts against the theorem only when the evicting
     node's ΠT held over that whole horizon -- otherwise it is a reaction
     to its breach.  A global classifier would be vacuous at scale: in a
     large network somebody is always mid-merge. *)
  let horizon = (2 * dmax) + 2 in
  let clean_streak : (Node_id.t, int) Hashtbl.t = Hashtbl.create 64 in
  for _ = 1 to rounds do
    Mobility.step mob ~dt;
    let g = Mobility.graph mob ~range in
    Rounds.set_graph t g;
    ignore (Rounds.round ~jitter ~rng t);
    let c = snapshot t g in
    let step = Membership.observe ledger c in
    List.iter
      (fun v ->
        Hashtbl.replace clean_streak v
          (if Node_id.Set.mem v step.Membership.breached then 0
           else 1 + Option.value ~default:horizon (Hashtbl.find_opt clean_streak v)))
      (Cfg.nodes c);
    if Node_id.Set.is_empty step.Membership.breached then incr pt_preserving
    else incr pt_violating;
    let clean v =
      Option.value ~default:0 (Hashtbl.find_opt clean_streak v) >= horizon
    in
    (* Theorem accounting is per pair: the eviction of u from v violates
       ΠT => ΠC only when both sides' views stayed within Dmax over the
       whole reaction horizon — an eviction propagated from the evictee's
       own breach is a reaction to it. *)
    Node_id.Map.iter
      (fun v removed ->
        if clean v then
          Node_id.Set.iter (fun u -> if clean u then incr evictions_under_pt) removed)
      step.Membership.evicted;
    let count, mean = group_stats c in
    group_count_sum := !group_count_sum +. float_of_int count;
    group_size_sum := !group_size_sum +. mean
  done;
  {
    steps = rounds;
    pt_preserving = !pt_preserving;
    pt_violating = !pt_violating;
    evictions_under_pt = !evictions_under_pt;
    mean_groups = !group_count_sum /. float_of_int (max 1 rounds);
    mean_group_size = !group_size_sum /. float_of_int (max 1 rounds);
    churn = Membership.summary ledger;
  }

let graph_snapshots ~seed ~spec ~n ~every ~rounds =
  let rng = Rng.create seed in
  let mob = Mobility.create (Rng.split rng) ~n spec in
  let out = ref [ Mobility.graph mob ~range ] in
  for step = 1 to rounds do
    Mobility.step mob ~dt;
    if step mod every = 0 then out := Mobility.graph mob ~range :: !out
  done;
  List.rev !out

let rgg ~seed ~n ?(density = 6.0) () =
  (* Box area chosen so that π r² n / area ≈ density with r = 1. *)
  let range = 1.0 in
  let side = sqrt (Float.pi *. range *. range *. float_of_int n /. density) in
  let rec try_seed s =
    let rng = Rng.create s in
    match
      Gen.random_geometric_connected rng ~n ~xmax:side ~ymax:side ~range ~max_tries:50
    with
    | Some (g, _) -> g
    | None -> try_seed (s + 7919)
  in
  try_seed seed
