module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
open Dgs_core

type t = Sharded.t

let create ~config ?(trace = Trace.null) ?(metrics = Registry.null) graph =
  Sharded.create ~config ~make_trace:(fun _ -> trace) ~make_metrics:(fun _ -> metrics) graph

let config = Sharded.config
let graph = Sharded.graph
let set_graph = Sharded.set_graph
let node = Sharded.node
let node_ids = Sharded.node_ids
let views = Sharded.views
let messages_sent = Sharded.messages_sent

let round ?(loss = 0.0) ?(jitter = 0.0) ?(corruption = 0.0) ?(sends = 1) ?rng t =
  if sends < 1 then invalid_arg "Rounds.round: sends must be >= 1";
  Rng.check_rate "Rounds.round: loss" loss;
  Rng.check_rate "Rounds.round: jitter" jitter;
  Rng.check_rate "Rounds.round: corruption" corruption;
  match rng with
  | None ->
      List.iter
        (fun (what, p) ->
          if p > 0.0 then invalid_arg ("Rounds.round: " ^ what ^ " > 0 requires an rng"))
        [ ("loss", loss); ("corruption", corruption); ("jitter", jitter) ];
      Sharded.step ~sends ~active:(fun _ -> true) t
  | Some r ->
      (* Per copy, in (send, src, dst) order: a loss draw, then, for a
         copy not lost, a corruption draw.  A corrupted frame crosses the
         wire with one byte flipped: unparsable frames are dropped,
         parsable ones reach the protocol as-is.  Then one jitter draw
         per node, in id order. *)
      let channel msg =
        if Rng.bernoulli r loss then Sharded.Lose
        else if not (Rng.bernoulli r corruption) then Sharded.Deliver
        else
          match Wire.of_string (Wire.corrupt r (Wire.to_string msg)) with
          | Some m -> Sharded.Deliver_as m
          | None -> Sharded.Drop
      in
      Sharded.step ~sends ~channel ~active:(fun _ -> not (Rng.bernoulli r jitter)) t

let run ?loss ?jitter ?corruption ?sends ?rng t n =
  for _ = 1 to n do
    ignore (round ?loss ?jitter ?corruption ?sends ?rng t)
  done

let run_until_stable ?loss ?jitter ?corruption ?sends ?rng ?on_round
    ?(max_rounds = 10_000) t =
  let confirm = Grp_node.quiet_rounds (config t) in
  let rec go rounds stable_streak previous =
    if stable_streak >= confirm then Some (rounds - stable_streak)
    else if rounds >= max_rounds then None
    else begin
      ignore (round ?loss ?jitter ?corruption ?sends ?rng t);
      (match on_round with Some f -> f (rounds + 1) | None -> ());
      let now = List.map (fun v -> Grp_node.state (node t v)) (node_ids t) in
      let streak =
        match previous with
        | Some p when List.equal Grp_node.same_state now p -> stable_streak + 1
        | _ -> 0
      in
      go (rounds + 1) streak (Some now)
    end
  in
  go 0 0 None
