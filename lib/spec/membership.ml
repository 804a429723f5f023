module Paths = Dgs_graph.Paths
module Stats = Dgs_util.Stats
open Dgs_core

type step = { breached : Node_id.Set.t; evicted : Node_id.Set.t Node_id.Map.t }

type summary = {
  node_rounds : int;
  evictions : int;
  additions : int;
  unjustified_evictions : int;
  lifetime : Stats.summary;
  stale_member_fraction : float;
}

type t = {
  dmax : int;
  mutable prev : Configuration.t;
  (* Per node: the current view and the rounds it has lasted. *)
  stretches : (Node_id.t, Node_id.Set.t * int) Hashtbl.t;
  mutable closed : float list;
  mutable node_rounds : int;
  mutable evictions : int;
  mutable additions : int;
  mutable unjustified : int;
  mutable member_pairs : int;
  mutable stale_pairs : int;
}

let create ~dmax start =
  {
    dmax;
    prev = start;
    stretches = Hashtbl.create 64;
    closed = [];
    node_rounds = 0;
    evictions = 0;
    additions = 0;
    unjustified = 0;
    member_pairs = 0;
    stale_pairs = 0;
  }

let observe t c =
  let graph = c.Configuration.graph in
  let breached = ref Node_id.Set.empty and evicted = ref Node_id.Map.empty in
  List.iter
    (fun v ->
      let before = Configuration.view t.prev v and view = Configuration.view c v in
      let pt_ok = Predicates.group_diameter_ok ~dmax:t.dmax graph before in
      if not pt_ok then breached := Node_id.Set.add v !breached;
      let removed = Node_id.Set.diff before view in
      let dropped = Node_id.Set.cardinal removed in
      t.evictions <- t.evictions + dropped;
      t.additions <- t.additions + Node_id.Set.cardinal (Node_id.Set.diff view before);
      if dropped > 0 then begin
        evicted := Node_id.Map.add v removed !evicted;
        if pt_ok then t.unjustified <- t.unjustified + dropped
      end;
      (* A change closes the node's current stretch. *)
      (match Hashtbl.find_opt t.stretches v with
      | Some (same, age) when Node_id.Set.equal same view ->
          Hashtbl.replace t.stretches v (same, age + 1)
      | Some (_, age) ->
          t.closed <- float_of_int age :: t.closed;
          Hashtbl.replace t.stretches v (view, 1)
      | None -> Hashtbl.replace t.stretches v (view, 1));
      if Node_id.Set.exists (fun u -> u <> v) view then begin
        let dist = Paths.bfs graph v in
        Node_id.Set.iter
          (fun u ->
            if u <> v then begin
              t.member_pairs <- t.member_pairs + 1;
              match Node_id.Tbl.find_opt dist u with
              | Some d when d <= t.dmax -> ()
              | _ -> t.stale_pairs <- t.stale_pairs + 1
            end)
          view
      end;
      t.node_rounds <- t.node_rounds + 1)
    (Configuration.nodes c);
  t.prev <- c;
  { breached = !breached; evicted = !evicted }

let summary t =
  let open_stretches =
    Hashtbl.fold (fun _ (_, age) acc -> float_of_int age :: acc) t.stretches t.closed
  in
  {
    node_rounds = t.node_rounds;
    evictions = t.evictions;
    additions = t.additions;
    unjustified_evictions = t.unjustified;
    lifetime = Stats.summarize open_stretches;
    stale_member_fraction =
      (if t.member_pairs = 0 then 0.0
       else float_of_int t.stale_pairs /. float_of_int t.member_pairs);
  }
