module Graph = Dgs_graph.Graph
module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
open Dgs_core

type stats = {
  computes : int;
  view_removals : int;
  medium : Medium.stats;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  config : Config.t;
  trace : Trace.t;
  metrics : Registry.t;
  tau_c : float;
  tau_s : float;
  topology : unit -> Graph.t;
  nodes : (Node_id.t, Grp_node.t) Hashtbl.t;
  active : (Node_id.t, unit) Hashtbl.t;
  (* Liveness generation of each installed node's timers.  A timer callback
     captures the generation current when it was scheduled and dies silently
     when the node's generation has moved on — deactivation and removal bump
     it, so stale timers fire at most once more instead of rescheduling
     forever (the pre-fix leak: a deactivated node kept burning two engine
     events per period indefinitely).  Generations are globally unique so a
     remove/add cycle can never resurrect an old timer. *)
  gens : (Node_id.t, int) Hashtbl.t;
  mutable next_gen : int;
  mutable medium : Message.t Medium.t option;
  mutable corruption : float;
  mutable computes : int;
  mutable view_removals : int;
  mutable observer :
    (time:float -> Grp_node.t -> Grp_node.step_info -> unit) option;
}

let engine t = t.engine
let node t v = Hashtbl.find t.nodes v
let node_ids t = Hashtbl.fold (fun v _ acc -> v :: acc) t.nodes [] |> List.sort compare
let is_active t v = Hashtbl.mem t.active v

let views t =
  List.fold_left
    (fun acc v ->
      if is_active t v then Node_id.Map.add v (Grp_node.view (node t v)) acc else acc)
    Node_id.Map.empty (node_ids t)

let medium t = match t.medium with Some m -> m | None -> assert false

let fresh_gen t =
  let g = t.next_gen in
  t.next_gen <- g + 1;
  g

let gen_live t v gen =
  match Hashtbl.find_opt t.gens v with Some g -> g = gen | None -> false

(* Timers only run for active nodes: a live generation implies the node has
   neither been deactivated nor removed since the timer chain was started
   (both bump the generation), and chains are only started at install and
   reactivation. *)
let rec schedule_compute t v gen delay =
  Engine.schedule_after t.engine delay (fun () ->
      if gen_live t v gen && is_active t v then begin
        let n = node t v in
        if Trace.enabled t.trace then
          Trace.set_time t.trace (Engine.now t.engine);
        let info = Grp_node.compute n in
        t.computes <- t.computes + 1;
        t.view_removals <-
          t.view_removals + Node_id.Set.cardinal info.Grp_node.view_removed;
        (match t.observer with
        | Some f -> f ~time:(Engine.now t.engine) n info
        | None -> ());
        schedule_compute t v gen t.tau_c
      end)

let rec schedule_send t v gen delay =
  Engine.schedule_after t.engine delay (fun () ->
      if gen_live t v gen && is_active t v then begin
        ignore
          (Medium.broadcast (medium t) ~src:v (Grp_node.make_message (node t v)));
        schedule_send t v gen t.tau_s
      end)

let start_timers t v =
  let gen = fresh_gen t in
  Hashtbl.replace t.gens v gen;
  schedule_compute t v gen (Rng.float t.rng t.tau_c);
  schedule_send t v gen (Rng.float t.rng t.tau_s)

let install_node t v =
  Hashtbl.replace t.nodes v
    (Grp_node.create ~config:t.config ~trace:t.trace ~metrics:t.metrics v);
  Hashtbl.replace t.active v ();
  start_timers t v

let create ~engine ~rng ~config ?(tau_c = 1.0) ?(tau_s = 0.4) ?(loss = 0.0)
    ?(corruption = 0.0) ?(delay_min = 0.001) ?(delay_max = 0.01)
    ?(trace = Trace.null) ?(metrics = Registry.null) ~topology ~nodes () =
  if tau_s > tau_c then invalid_arg "Net.create: tau_s must be <= tau_c";
  if corruption < 0.0 || corruption > 1.0 then
    invalid_arg "Net.create: corruption out of [0,1]";
  let t =
    {
      engine;
      rng;
      config;
      trace;
      metrics;
      tau_c;
      tau_s;
      topology;
      nodes = Hashtbl.create 64;
      active = Hashtbl.create 64;
      gens = Hashtbl.create 64;
      next_gen = 0;
      medium = None;
      corruption;
      computes = 0;
      view_removals = 0;
      observer = None;
    }
  in
  let audience src = Graph.Int_set.elements (Graph.neighbors (topology ()) src) in
  let corrupt_rng = Rng.split rng in
  (* Returns whether the protocol consumed the copy: [false] (a drop, in
     the medium's accounting) when the destination is deactivated or
     removed, or when the frame was corrupted out of the wire grammar. *)
  let deliver ~dst ~lid msg =
    if is_active t dst then
      match Hashtbl.find_opt t.nodes dst with
      | Some n ->
          (* With frame corruption enabled, every delivery goes through the
             wire format; a frame mutated out of the grammar is dropped,
             one mutated into validity reaches the protocol and is handled
             by its own checks. *)
          if t.corruption > 0.0 && Rng.bernoulli corrupt_rng t.corruption then begin
            match Wire.of_string (Wire.corrupt corrupt_rng (Wire.to_string msg)) with
            | Some msg' ->
                Grp_node.receive_lid n ~lid msg';
                true
            | None -> false
          end
          else begin
            Grp_node.receive_lid n ~lid msg;
            true
          end
      | None -> false
    else false
  in
  t.medium <-
    Some
      (Medium.create ~engine ~rng:(Rng.split rng) ~loss ~delay_min ~delay_max ~trace
         ~metrics ~audience ~deliver ());
  List.iter (install_node t) nodes;
  t

let run_until t horizon = Engine.run_until t.engine horizon

let deactivate t v =
  if Hashtbl.mem t.active v then begin
    Hashtbl.remove t.active v;
    (* Bump to a generation no timer carries: the node's pending timers
       fire at most once more as no-ops and stop rescheduling. *)
    Hashtbl.replace t.gens v (fresh_gen t)
  end

let activate t v =
  if Hashtbl.mem t.nodes v && not (Hashtbl.mem t.active v) then begin
    Hashtbl.replace t.active v ();
    start_timers t v
  end

let reset_node t v =
  if Hashtbl.mem t.nodes v then
    Hashtbl.replace t.nodes v
      (Grp_node.create ~config:t.config ~trace:t.trace ~metrics:t.metrics v)

let add_node t v = if not (Hashtbl.mem t.nodes v) then install_node t v

let remove_node t v =
  Hashtbl.remove t.nodes v;
  Hashtbl.remove t.active v;
  Hashtbl.remove t.gens v
let set_loss t loss = Medium.set_loss (medium t) loss

let set_corruption t c =
  if c < 0.0 || c > 1.0 then invalid_arg "Net.set_corruption: rate out of [0,1]";
  t.corruption <- c

let corruption t = t.corruption
let on_step t f = t.observer <- Some f

let stats t =
  {
    computes = t.computes;
    view_removals = t.view_removals;
    medium = Medium.stats (medium t);
  }

let state_signature t =
  let buf = Buffer.create 256 in
  List.iter
    (fun v ->
      if is_active t v then begin
        let n = node t v in
        Buffer.add_string buf (Antlist.to_string (Grp_node.antlist n));
        Buffer.add_string buf (Format.asprintf "%a" Node_id.pp_set (Grp_node.view n));
        Node_id.Map.iter
          (fun u k -> Buffer.add_string buf (Printf.sprintf "%d:%d;" u k))
          (Grp_node.quarantines n);
        Buffer.add_char buf '|'
      end)
    (node_ids t);
  Buffer.contents buf
