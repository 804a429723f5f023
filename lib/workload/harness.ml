module Graph = Dgs_graph.Graph
module Gen = Dgs_graph.Gen
module Rounds = Dgs_sim.Rounds
module Cfg = Dgs_spec.Configuration
module P = Dgs_spec.Predicates
module Mobility = Dgs_mobility.Mobility
module Rng = Dgs_util.Rng
module Stats = Dgs_util.Stats
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
             (fun g' ->
               Dgs_graph.Paths.diameter_of_set c.Cfg.graph (Node_id.Set.union g g')
               <= dmax)
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
  unjustified_evictions : int;
  evictions_total : int;
  additions_total : int;
  mean_groups : float;
  mean_group_size : float;
  group_lifetime : Stats.summary;
  stale_member_fraction : float;
}

(* Every mobility run is one unit-time step per round, over a unit-disk
   graph of radius 2, under jitter 0.1. *)
let jitter = 0.1 and range = 2.0 and dt = 1.0

let run_mobility ?(warmup = 30) ?trace ?metrics ~config ~seed ~spec ~n ~rounds () =
  let rng = Rng.create seed in
  let mob = Mobility.create (Rng.split rng) ~n spec in
  let t = Rounds.create ~config ?trace ?metrics (Mobility.graph mob ~range) in
  for _ = 1 to warmup do
    ignore (Rounds.round ~jitter ~rng t)
  done;
  let pt_preserving = ref 0
  and pt_violating = ref 0
  and evictions_under_pt = ref 0
  and unjustified_evictions = ref 0
  and evictions_total = ref 0
  and additions_total = ref 0
  and group_count_sum = ref 0.0
  and group_size_sum = ref 0.0 in
  (* Per-node age of the current view composition, for lifetimes. *)
  let view_age = Hashtbl.create 64 in
  let lifetimes = ref [] in
  let dmax = config.Config.dmax in
  (* Î T attribution is per node: a node's transition is clean when its own
     view keeps induced diameter <= Dmax in the new topology.  The protocol
     reacts to a breach with up to 2*Dmax+2 computes of lag (mark
     propagation, quarantine, the compute pipeline), so an eviction counts
     against the theorem only when the evicting node's Î T held over that
     whole horizon -- otherwise it is a reaction to its breach.  A global
     classifier would be vacuous at scale: in a large network somebody is
     always mid-merge. *)
  let horizon = (2 * dmax) + 2 in
  let clean_streak : (Node_id.t, int) Hashtbl.t = Hashtbl.create 64 in
  let member_pairs = ref 0 and stale_pairs = ref 0 in
  for _ = 1 to rounds do
    let g0 = Rounds.graph t in
    let c0 = snapshot t g0 in
    Mobility.step mob ~dt;
    let g1 = Mobility.graph mob ~range in
    Rounds.set_graph t g1;
    let infos = Rounds.round ~jitter ~rng t in
    (* Per-node Î T for this transition: old view, new graph. *)
    let node_pt_ok v =
      let old_view =
        match Node_id.Map.find_opt v c0.Cfg.views with
        | Some s -> s
        | None -> Node_id.Set.singleton v
      in
      Dgs_graph.Paths.diameter_of_set g1 old_view <= dmax
    in
    let all_clean = ref true in
    List.iter
      (fun v ->
        if node_pt_ok v then
          Hashtbl.replace clean_streak v
            (1 + Option.value ~default:horizon (Hashtbl.find_opt clean_streak v))
        else begin
          all_clean := false;
          Hashtbl.replace clean_streak v 0
        end)
      (Rounds.node_ids t);
    if !all_clean then incr pt_preserving else incr pt_violating;
    let streak_of v = Option.value ~default:0 (Hashtbl.find_opt clean_streak v) in
    Node_id.Map.iter
      (fun v i ->
        let removed = Node_id.Set.cardinal i.Grp_node.view_removed in
        let added = Node_id.Set.cardinal i.Grp_node.view_added in
        evictions_total := !evictions_total + removed;
        additions_total := !additions_total + added;
        if removed > 0 then begin
          (* Theorem accounting is per pair: the eviction of u from v
             violates Î T => Î C only when both sides' views stayed within
             Dmax over the whole reaction horizon — an eviction propagated
             from the evictee's own breach is a reaction to it. *)
          if streak_of v >= horizon then
            Node_id.Set.iter
              (fun u ->
                if streak_of u >= horizon then incr evictions_under_pt)
              i.Grp_node.view_removed;
          (* Unjustified: the node's own Î T held on this very transition --
             nothing forced the eviction. *)
          if node_pt_ok v then
            unjustified_evictions := !unjustified_evictions + removed
        end)
      infos;
    (* View lifetimes: a change closes the node's current stretch. *)
    List.iter
      (fun v ->
        let view = Grp_node.view (Rounds.node t v) in
        match Hashtbl.find_opt view_age v with
        | Some (prev, age) when Node_id.Set.equal prev view ->
            Hashtbl.replace view_age v (prev, age + 1)
        | Some (_, age) ->
            lifetimes := float_of_int age :: !lifetimes;
            Hashtbl.replace view_age v (view, 1)
        | None -> Hashtbl.replace view_age v (view, 1))
      (Rounds.node_ids t);
    let c1 = snapshot t g1 in
    let count, mean = group_stats c1 in
    group_count_sum := !group_count_sum +. float_of_int count;
    group_size_sum := !group_size_sum +. mean;
    (* Stale membership: view members farther than Dmax in the current
       topology — the freshness GRP's evictions buy. *)
    List.iter
      (fun v ->
        Node_id.Set.iter
          (fun u ->
            if u <> v then begin
              incr member_pairs;
              if Dgs_graph.Paths.dist g1 v u > dmax then incr stale_pairs
            end)
          (Grp_node.view (Rounds.node t v)))
      (Rounds.node_ids t)
  done;
  (* Close the open stretches so long-lived views are not dropped. *)
  Hashtbl.iter (fun _ (_, age) -> lifetimes := float_of_int age :: !lifetimes) view_age;
  {
    steps = rounds;
    pt_preserving = !pt_preserving;
    pt_violating = !pt_violating;
    evictions_under_pt = !evictions_under_pt;
    unjustified_evictions = !unjustified_evictions;
    evictions_total = !evictions_total;
    additions_total = !additions_total;
    mean_groups = !group_count_sum /. float_of_int (max 1 rounds);
    mean_group_size = !group_size_sum /. float_of_int (max 1 rounds);
    group_lifetime = Stats.summarize !lifetimes;
    stale_member_fraction =
      (if !member_pairs = 0 then 0.0
       else float_of_int !stale_pairs /. float_of_int !member_pairs);
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
