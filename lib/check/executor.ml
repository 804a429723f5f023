module Graph = Dgs_graph.Graph
module Int_set = Dgs_util.Int_set
module Rng = Dgs_util.Rng
module Mobility = Dgs_mobility.Mobility
module Trace = Dgs_trace.Trace
module Net = Dgs_sim.Net
module Configuration = Dgs_spec.Configuration
module Predicates = Dgs_spec.Predicates
open Dgs_core

let tau_c = Net.tau_c

(* Initial convergence is treated as a disruption "ending" at this
   simulated time: continuity is never enforced before
   [initial_grace + horizon], leaving the protocol room to reach its
   first legitimate configuration without false eviction alarms. *)
let initial_grace = 20.0

(* Simulated seconds granted to reach quiescence after the script. *)
let quiescence_budget = 150.0

(* Unit-disk radius and box for scheduled mobility models: the box area
   grows with the node count so the fuzzing-sized scenarios (3-9 nodes)
   keep a mean degree that makes both merges and partitions reachable. *)
let mob_range = 2.0

let mob_spec model ~n ~speed =
  let box = Float.max 4.0 (2.0 *. sqrt (float_of_int n)) in
  let speed = Float.max 0.01 (Float.min 2.0 speed) in
  match model with
  | Scenario.Mob_waypoint ->
      Mobility.Waypoint
        {
          xmax = box;
          ymax = box;
          vmin = (speed /. 2.0) +. 1e-9;
          vmax = (speed *. 1.5) +. 2e-9;
          pause = 1.0;
        }
  | Scenario.Mob_walk ->
      Mobility.Walk { xmax = box; ymax = box; speed; turn_sigma = 0.5 }
  | Scenario.Mob_highway ->
      Mobility.Highway
        {
          lanes = 2;
          lane_gap = mob_range /. 2.0;
          length = 2.0 *. box;
          vmin = speed /. 2.0;
          vmax = (speed *. 1.5) +. 1e-9;
          bidirectional = true;
        }
  | Scenario.Mob_manhattan ->
      Mobility.Manhattan { blocks_x = 3; blocks_y = 3; block = mob_range; speed }

let run ?(strict_continuity = false) ?(protocol = Fun.id)
    ?(trace = Trace.null) ?(metrics = Dgs_metrics.Registry.null) ?on_observe
    (sc : Scenario.t) : Oracle.report =
  let module Registry = Dgs_metrics.Registry in
  let module Names = Dgs_metrics.Names in
  let m_poll = Registry.counter metrics Names.oracle_poll_total in
  let m_poll_ns = Registry.timer metrics Names.oracle_poll_ns in
  let rng = Rng.create sc.seed in
  (* Derived without advancing [rng]: mobility consumes its own stream, so
     scenarios (and their on-disk repros) that never install a model replay
     byte-identically to before mobility existed. *)
  let mob_rng = Rng.split_at rng 9973 in
  let graph = Scenario.build sc.topology in
  let config = protocol (Config.make ~dmax:sc.dmax ()) in
  let net =
    Net.create ~rng ~config ~loss:sc.loss ~corruption:sc.corruption
      ~trace ~metrics
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  let violations = ref [] in
  let nviol = ref 0 in
  let add check time detail =
    (* Keep the report bounded: a systematic violation would otherwise
       fire on every compute of a long run. *)
    if !nviol < 50 then violations := { Oracle.check; time; detail } :: !violations;
    incr nviol
  in
  (* Continuity calm-window machinery: evictions only count once the
     channel is clean and [horizon] has elapsed since the last disruption
     (churn, loss change, ΠT-breaking rewire).  Creation counts as a
     disruption lasting until [initial_grace] so initial convergence is
     never judged.  The horizon scales with the node count: a single
     ΠT-breaking event can trigger a re-pairing cascade that walks the
     whole network (one admission handshake plus quarantine per hop), so
     small-diameter topologies legitimately restructure for O(n) compute
     periods. *)
  let horizon () =
    float_of_int ((4 * sc.dmax) + 12 + (4 * Graph.node_count graph)) *. tau_c
  in
  let calm_from = ref (initial_grace +. horizon ()) in
  let disrupt () =
    calm_from := max !calm_from (Net.now net +. horizon ())
  in
  (* Clamp a scheduled channel rate, set it, and count a change as a
     disruption. *)
  let set_rate get set p =
    let p = Float.max 0.0 (Float.min 1.0 p) in
    let changed = p <> get net in
    set net p;
    if changed then disrupt ()
  in
  (* The final judgement and the quiescence-phase observer see the same
     active-induced configuration; [Graph.induced] allocates a fresh
     graph, so observers may retain or diff configurations across polls. *)
  let active_configuration () =
    let active = List.filter (Net.is_active net) (Net.node_ids net) in
    Configuration.make
      ~graph:(Graph.induced graph (Int_set.of_list active))
      ~views:(Net.views net)
  in
  let mob = ref None in
  (* Engine-fire budget, accumulated per activation episode. *)
  let rate = (1.0 /. tau_c) +. (1.0 /. Net.tau_s) in
  let budget = ref 8.0 in
  let episodes = Hashtbl.create 16 in
  let begin_episode v =
    if not (Hashtbl.mem episodes v) then
      Hashtbl.replace episodes v (Net.now net)
  in
  let end_episode v =
    match Hashtbl.find_opt episodes v with
    | Some t0 ->
        Hashtbl.remove episodes v;
        budget := !budget +. ((Net.now net -. t0) *. rate) +. 4.0
    | None -> ()
  in
  List.iter begin_episode (Graph.nodes graph);
  Net.on_step net (fun ~time node info ->
      let l = Grp_node.antlist node in
      if not (Antlist.well_formed l) then
        add "well_formed" time
          (Printf.sprintf "node %d computed ill-formed list %s" (Grp_node.id node)
             (Antlist.to_string l));
      let removed = info.Grp_node.view_removed in
      if not (Node_id.Set.is_empty removed) then begin
        let calm =
          Net.loss net = 0.0 && Net.corruption net = 0.0 && time >= !calm_from
        in
        if strict_continuity || calm then
          add "continuity" time
            (Format.asprintf "node %d evicted %a%s" (Grp_node.id node)
               Node_id.pp_set removed
               (if calm then " in a calm window" else ""))
      end);
  let known v = List.exists (Int.equal v) (Net.node_ids net) in
  (* Did a rewire from [before] to the current [graph] break ΠT? *)
  let topology_broken before =
    let views = Net.views net in
    let c = Configuration.make ~graph:before ~views in
    let c' = Configuration.make ~graph ~views in
    Predicates.topology_preserved ~dmax:sc.dmax c c' <> None
  in
  (* Step a channel rate linearly to [target], one compute period per
     step. *)
  let ramp get set target steps =
    let target = Float.max 0.0 (Float.min 1.0 target) in
    let steps = max 1 (min 32 steps) in
    let from = get net in
    for i = 1 to steps do
      set_rate get set
        (from +. ((target -. from) *. float_of_int i /. float_of_int steps));
      Net.run_until net (Net.now net +. tau_c)
    done
  in
  let apply = function
    | Scenario.Pause d ->
        if d > 0.0 then Net.run_until net (Net.now net +. d)
    | Scenario.Deactivate v ->
        if Net.is_active net v then begin
          end_episode v;
          Net.deactivate net v;
          disrupt ()
        end
    | Scenario.Activate v ->
        if known v && not (Net.is_active net v) then begin
          Net.activate net v;
          begin_episode v;
          (* Resumes with stale state: its first computes may legitimately
             evict members that moved on while it was down. *)
          disrupt ()
        end
    | Scenario.Reset v ->
        if known v then begin
          Net.reset_node net v;
          if Net.is_active net v then disrupt ()
        end
    | Scenario.Remove v ->
        if known v then begin
          if Net.is_active net v then end_episode v;
          Net.remove_node net v;
          Graph.remove_node graph v;
          disrupt ()
        end
    | Scenario.Add v ->
        if not (known v) then begin
          Graph.add_node graph v;
          Net.add_node net v;
          begin_episode v
          (* A fresh isolated node cannot shrink anyone's view: not a
             disruption. *)
        end
    | Scenario.Set_loss p -> set_rate Net.loss Net.set_loss p
    | Scenario.Add_edge (u, v) ->
        (* New edges only shrink distances, so ΠT keeps holding and the
           best-effort theorem says continuity must survive the merge
           traffic this triggers: deliberately NOT a disruption. *)
        if u <> v && known u && known v && not (Graph.mem_edge graph u v) then
          Graph.add_edge graph u v
    | Scenario.Remove_edge (u, v) ->
        if Graph.mem_edge graph u v then begin
          let before = Graph.copy graph in
          Graph.remove_edge graph u v;
          (* ΠT-preserving rewires guarantee ΠC (paper Proposition 14):
             only a rewire that actually breaks ΠT excuses evictions. *)
          if topology_broken before then disrupt ()
        end
    | Scenario.Mob_start (model, speed) ->
        (* (Re)install a model over the ids currently in the topology; a
           fresh install replaces any previous one.  Pointless below two
           nodes, and skipping keeps the report meaningful. *)
        let ids = Graph.nodes graph in
        if List.length ids >= 2 then begin
          let spec = mob_spec model ~n:(List.length ids) ~speed in
          mob :=
            Some
              (Mobility.Driver.create (Rng.split mob_rng) ~ids ~spec
                 ~range:mob_range)
        end
    | Scenario.Mob_step k -> (
        match !mob with
        | None -> ()  (* no model installed: declared a no-op *)
        | Some driver ->
            let k = max 1 (min 32 k) in
            for _ = 1 to k do
              Mobility.Driver.step driver ~dt:1.0;
              let before = Graph.copy graph in
              if Mobility.Driver.apply driver graph && topology_broken before
              then disrupt ();
              Net.run_until net (Net.now net +. tau_c)
            done)
    | Scenario.Ramp_loss (target, steps) -> ramp Net.loss Net.set_loss target steps
    | Scenario.Ramp_corruption (target, steps) ->
        ramp Net.corruption Net.set_corruption target steps
  in
  List.iter apply sc.actions;
  (* Quiescence phase: lossless channel, wait for the state snapshot to
     hold still for a confirmation window. *)
  set_rate Net.loss Net.set_loss 0.0;
  (* Corruption is reset the same way: quiescence is judged over a fully
     clean channel, so a livelock verdict indicts the protocol, never the
     channel (a persistent corruption stream can otherwise drive a
     perfectly periodic drop -> eviction -> re-admission cycle). *)
  set_rate Net.corruption Net.set_corruption 0.0;
  let confirm = Grp_node.quiet_rounds config in
  let deadline = Net.now net +. quiescence_budget in
  let poll () =
    Registry.Counter.incr m_poll;
    Option.iter
      (fun f -> f ~time:(Net.now net) (active_configuration ()))
      on_observe;
    Registry.Timer.time m_poll_ns (fun () -> Net.state_signature net)
  in
  let same = List.equal Grp_node.same_state in
  (* Most recent snapshot first; only consulted if the budget runs out. *)
  let history = ref [ poll () ] in
  let rec wait stable last =
    if stable >= confirm then Some (Net.now net)
    else if Net.now net >= deadline then None
    else begin
      Net.run_until net (Net.now net +. tau_c);
      let s = poll () in
      history := s :: !history;
      if same s last then wait (stable + 1) s else wait 0 s
    end
  in
  let quiesce_time = wait 0 (poll ()) in
  let stabilized = quiesce_time <> None in
  let t_end = Net.now net in
  (* Livelock: a non-quiescent run whose recent snapshots provably repeat
     with some period p >= 2 (p = 1 over a confirm window would have been
     quiescence).  Each candidate period must hold over max(2p, confirm)
     consecutive polls ending at the deadline. *)
  let livelock_period =
    if stabilized then None
    else begin
      let arr = Array.of_list !history in
      let n = Array.length arr in
      let holds p =
        let window = max (2 * p) confirm in
        window + p <= n
        &&
        let rec go i =
          i >= window || (same arr.(i) arr.(i + p) && go (i + 1))
        in
        go 0
      in
      let rec find p = if 2 * p > n then None else if holds p then Some p else find (p + 1) in
      find 2
    end
  in
  (match livelock_period with
  | Some p ->
      (* Bypass the 50-violation cap: this is a one-shot terminal verdict,
         and a livelocking run typically saturates the cap with per-compute
         violations long before the deadline. *)
      violations :=
        {
          Oracle.check = "livelock";
          time = t_end;
          detail =
            Printf.sprintf
              "state signature repeats with period %d polls (%.1f s) without quiescing"
              p
              (float_of_int p *. tau_c);
        }
        :: !violations
  | None -> ());
  (* Judge the final configuration over the active-induced topology. *)
  let c = active_configuration () in
  let pv v = Format.asprintf "%a" Predicates.pp_violation v in
  if stabilized then begin
    (match Predicates.agreement c with
    | Some v -> add "agreement" t_end (pv v)
    | None -> ());
    match Predicates.safety ~dmax:sc.dmax c with
    | Some v -> add "safety" t_end (pv v)
    | None -> ()
  end;
  let maximality_gap = stabilized && Predicates.maximality ~dmax:sc.dmax c <> None in
  let stats = Net.stats net in
  (* Engine-fire budget: close the still-open episodes, then compare. *)
  Hashtbl.iter
    (fun _ t0 -> budget := !budget +. ((t_end -. t0) *. rate) +. 4.0)
    episodes;
  let fires = Net.fired net in
  let fire_budget =
    int_of_float (Float.ceil !budget) + stats.Net.deliveries + stats.Net.drops
  in
  if fires > fire_budget then
    add "engine_budget" t_end
      (Printf.sprintf
         "engine executed %d callbacks but the schedule only justifies %d — timer leak?"
         fires fire_budget);
  {
    Oracle.violations = List.rev !violations;
    stabilized;
    quiesce_time;
    livelock_period;
    maximality_gap;
    groups = List.length (Configuration.groups c);
    evictions = stats.Net.view_removals;
    computes = stats.Net.computes;
    broadcasts = stats.Net.broadcasts;
    deliveries = stats.Net.deliveries;
    drops = stats.Net.drops;
    losses = stats.Net.losses;
    engine_fires = fires;
    engine_fire_budget = fire_budget;
  }
