(* Unit tests for the simulation layer: engine, round runner and the
   event-driven network runtime with its broadcast channel. *)

module Engine = Dgs_sim.Engine
module Rounds = Dgs_sim.Rounds
module Net = Dgs_sim.Net
module Gen = Dgs_graph.Gen
module Graph = Dgs_graph.Graph
module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- engine --- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e 3.0 (fun () -> log := 3 :: !log);
  Engine.schedule_at e 1.0 (fun () -> log := 1 :: !log);
  Engine.schedule_at e 2.0 (fun () -> log := 2 :: !log);
  Engine.run_until e 10.0;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at horizon" 10.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule_at e 1.0 (fun () -> log := i :: !log)
  done;
  Engine.run_until e 2.0;
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_horizon () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule_at e 5.0 (fun () -> fired := true);
  Engine.run_until e 4.0;
  check "not yet" false !fired;
  Engine.run_until e 5.0;
  check "now fired" true !fired

let test_engine_cascading () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Engine.schedule_after e 1.0 tick
  in
  Engine.schedule_after e 1.0 tick;
  Engine.run_until e 100.0;
  check_int "self-rescheduling chain" 5 !count

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.run_until e 5.0;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e 1.0 (fun () -> ()))

(* Events fire in [(time, schedule order)] order — including one scheduled
   at the current time from inside a callback, which fires after the
   same-time events queued before it — and [Engine.fired], the count the
   dgs_check fire-budget oracle reads, is the number of callbacks that
   ran. *)
let test_engine_fire_order () =
  let e = Engine.create () in
  let log = ref [] in
  let record label () = log := label :: !log in
  List.iter
    (fun (at, label) -> Engine.schedule_at e at (record label))
    [ (2.0, "a"); (1.0, "b"); (2.0, "c"); (3.0, "d") ];
  Engine.schedule_at e 1.0 (fun () ->
      record "e" ();
      Engine.schedule_after e 0.0 (record "e'"));
  Engine.schedule_at e 1.0 (record "f");
  Engine.schedule_at e 9.0 (record "beyond the horizon");
  Engine.run_until e 5.0;
  let ran = List.rev !log in
  Alcotest.(check (list string)) "fires in (time, schedule order)"
    [ "b"; "e"; "f"; "e'"; "a"; "c"; "d" ] ran;
  check_int "fired counts the callbacks that ran" (List.length ran) (Engine.fired e)

(* --- net channel --- *)

let make_net ?(loss = 0.0) ?(trace = Trace.null) ~seed graph =
  Net.create ~rng:(Rng.create seed)
    ~config:(Config.make ~dmax:2 ())
    ~loss ~trace
    ~topology:(fun () -> graph)
    ~nodes:(Graph.nodes graph) ()

(* Each broadcast sends one copy to every neighbour, once: on a lossless
   star, every broadcast's lineage id is delivered exactly once at each
   of its sender's neighbours and nowhere else, copies sent within the
   maximum delay (0.01) of the horizon excepted, which are still in
   flight. *)
let test_net_broadcast () =
  let graph = Gen.star 4 in
  let ring = Trace.Ring.create ~capacity:65536 in
  let net = make_net ~trace:(Trace.Ring.sink ring) ~seed:1 graph in
  let horizon = 20.0 in
  Net.run_until net horizon;
  let events = Trace.Ring.contents ring in
  check_int "ring kept every event" (Trace.Ring.seen ring) (Trace.Ring.length ring);
  let sends =
    List.filter_map
      (function time, Trace.Msg_sent { src; lid } -> Some (time, src, lid) | _ -> None)
      events
  in
  check "hub and leaves sent" true (List.length sends > 4 * 40);
  List.iter
    (fun (time, src, lid) ->
      let dsts =
        List.filter_map
          (function
            | _, Trace.Msg_delivered { src = s; dst; cause } when s = src && cause = lid ->
                Some dst
            | _ -> None)
          events
        |> List.sort compare
      in
      let neighbours = Graph.Int_set.elements (Graph.neighbors graph src) in
      if time <= horizon -. 0.01 then
        Alcotest.(check (list int))
          (Printf.sprintf "copies of broadcast %d" lid)
          neighbours dsts
      else
        check "in-flight broadcast: at most one copy per neighbour" true
          (List.sort_uniq compare dsts = dsts
          && List.for_all (fun d -> List.mem d neighbours) dsts))
    sends

let test_net_total_loss () =
  let graph = Gen.line 2 in
  let net = make_net ~loss:1.0 ~seed:1 graph in
  Net.run_until net 20.0;
  let s = Net.stats net in
  check "broadcasts counted" true (s.Net.broadcasts > 40);
  check_int "every copy lost" s.Net.broadcasts s.Net.losses;
  check_int "nothing delivered" 0 s.Net.deliveries;
  check_int "nothing dropped" 0 s.Net.drops;
  check "nobody admitted" true
    (Node_id.Set.equal (Grp_node.view (Net.node net 0)) (Node_id.Set.singleton 0))

let test_net_loss_rate () =
  let graph = Gen.line 2 in
  let net = make_net ~loss:0.5 ~seed:1 graph in
  Net.run_until net 400.0;
  let s = Net.stats net in
  (* One copy per broadcast on a line of two. *)
  check "enough copies" true (s.Net.broadcasts >= 1500);
  let share = float_of_int s.Net.losses /. float_of_int s.Net.broadcasts in
  check "≈ half lost" true (share > 0.425 && share < 0.575)

(* --- rounds runner --- *)

let test_rounds_message_count () =
  let t = Rounds.create ~config:(Config.make ~dmax:2 ()) (Gen.line 3) in
  ignore (Rounds.round t);
  (* line 0-1-2: directed deliveries = 2*edges = 4. *)
  check_int "messages" 4 (Rounds.messages_sent t)

(* The message count pins the quiescence rule: a settled pair has run
   its [r] rounds plus a Dmax+5 confirmation tail, two deliveries each. *)
let test_rounds_stabilizes_pair () =
  List.iter
    (fun dmax ->
      let t = Rounds.create ~config:(Config.make ~dmax ()) (Gen.line 2) in
      match Rounds.run_until_stable t with
      | Some r ->
          check "fast" true (r <= 5);
          Alcotest.(check bool) "paired" true
            (Node_id.Set.equal (Grp_node.view (Rounds.node t 0)) (Node_id.set_of_list [ 0; 1 ]));
          check_int
            (Printf.sprintf "dmax %d deliveries" dmax)
            (2 * (r + dmax + 5))
            (Rounds.messages_sent t)
      | None -> Alcotest.fail "did not stabilize")
    [ 1; 3 ]

(* A positive rate without an rng is refused before the round touches
   any state: no copy counted, no inbox filled. *)
let test_rounds_loss_requires_rng () =
  List.iter
    (fun (what, round) ->
      let t = Rounds.create ~config:(Config.make ~dmax:1 ()) (Gen.line 3) in
      Alcotest.check_raises what
        (Invalid_argument ("Rounds.round: " ^ what ^ " > 0 requires an rng"))
        (fun () -> ignore (round t));
      check_int (what ^ ": no copy counted") 0 (Rounds.messages_sent t);
      List.iter
        (fun v ->
          check
            (Printf.sprintf "%s: node %d has no pending sender" what v)
            true
            (Node_id.Set.is_empty (Grp_node.pending_senders (Rounds.node t v))))
        (Rounds.node_ids t))
    [
      ("jitter", fun t -> Rounds.round ~jitter:0.5 t);
      ("loss", fun t -> Rounds.round ~loss:0.5 t);
      ("corruption", fun t -> Rounds.round ~corruption:0.5 t);
    ]

(* A corrupted frame that no longer parses never reaches the protocol,
   so it is traced [Msg_dropped], as under [Net]: with every copy
   corrupted and no compute, the [Msg_delivered] events are exactly the
   copies the nodes hold. *)
let test_rounds_unparsable_frame_dropped () =
  let ring = Trace.Ring.create ~capacity:4096 in
  let t =
    Rounds.create ~config:(Config.make ~dmax:2 ()) ~trace:(Trace.Ring.sink ring)
      (Gen.grid 3 3)
  in
  ignore (Rounds.round ~corruption:1.0 ~jitter:1.0 ~rng:(Rng.create 1) t);
  let count kind =
    List.length
      (List.filter (fun (_, ev) -> Trace.kind ev = kind) (Trace.Ring.contents ring))
  in
  let held =
    List.fold_left
      (fun acc v -> acc + Node_id.Set.cardinal (Grp_node.pending_senders (Rounds.node t v)))
      0 (Rounds.node_ids t)
  in
  check_int "delivered = held" held (count "Msg_delivered");
  check "some frames were dropped" true (count "Msg_dropped" > 0);
  check_int "every copy delivered or dropped" (Rounds.messages_sent t)
    (count "Msg_delivered" + count "Msg_dropped")

(* Every rate a round draws from is checked before the round runs, NaN
   included: unchecked, a jitter above 1 would skip every compute and a
   negative loss deliver everything. *)
let test_rounds_rate_validation () =
  let t = Rounds.create ~config:(Config.make ~dmax:1 ()) (Gen.line 2) in
  let rng = Rng.create 1 in
  List.iter
    (fun (msg, round) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (round ())))
    [
      ("Rounds.round: jitter out of [0,1]", fun () -> Rounds.round ~jitter:1.5 ~rng t);
      ("Rounds.round: loss out of [0,1]", fun () -> Rounds.round ~loss:(-0.5) ~rng t);
      ( "Rounds.round: corruption out of [0,1]",
        fun () -> Rounds.round ~corruption:Float.nan ~rng t );
      ("Rounds.round: jitter out of [0,1]", fun () -> Rounds.round ~jitter:Float.nan ~rng t);
    ];
  check_int "no rejected round ran" 0 (Rounds.messages_sent t);
  ignore (Rounds.round ~loss:1.0 ~jitter:0.0 ~corruption:0.0 ~rng t);
  check_int "rates at the bounds run" 2 (Rounds.messages_sent t)

let test_rounds_sends_multiplies () =
  let t = Rounds.create ~config:(Config.make ~dmax:2 ()) (Gen.line 3) in
  ignore (Rounds.round ~sends:3 t);
  check_int "3x messages" 12 (Rounds.messages_sent t)

let test_rounds_set_graph_adds_nodes () =
  let g = Gen.line 2 in
  let t = Rounds.create ~config:(Config.make ~dmax:2 ()) g in
  Graph.add_edge g 1 2;
  Rounds.set_graph t g;
  Alcotest.(check (list int)) "new node known" [ 0; 1; 2 ] (Rounds.node_ids t);
  ignore (Rounds.round t)

let test_rounds_views_map () =
  let t = Rounds.create ~config:(Config.make ~dmax:2 ()) (Gen.line 3) in
  ignore (Rounds.run_until_stable t);
  let views = Rounds.views t in
  check_int "all nodes" 3 (Node_id.Map.cardinal views);
  check "agreeing" true
    (Node_id.Map.for_all
       (fun _ v -> Node_id.Set.equal v (Node_id.set_of_list [ 0; 1; 2 ]))
       views)

(* --- net (event-driven) --- *)

let test_net_converges () =
  let graph = Gen.line 3 in
  let net =
    Net.create ~rng:(Rng.create 3)
      ~config:(Config.make ~dmax:2 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  Net.run_until net 40.0;
  let views = Net.views net in
  check "line of 3 groups up" true
    (Node_id.Map.for_all
       (fun _ v -> Node_id.Set.equal v (Node_id.set_of_list [ 0; 1; 2 ]))
       views)

let test_net_signature_stabilizes () =
  let graph = Gen.ring 6 in
  let net =
    Net.create ~rng:(Rng.create 4)
      ~config:(Config.make ~dmax:2 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  Net.run_until net 80.0;
  let s1 = Net.state_signature net in
  Net.run_until net 100.0;
  check "signature stable" true
    (List.equal Grp_node.same_state s1 (Net.state_signature net))

(* A quiescence poll of a quiet 9-node network shares the nodes' state:
   per node a 5-word snapshot and the cons cells of the id sort and the
   result list, 26 words; rendering a node's list, view and quarantine
   to a string would cost several hundred. *)
let test_net_signature_alloc () =
  let graph = Gen.grid 3 3 in
  let net =
    Net.create ~rng:(Rng.create 4)
      ~config:(Config.make ~dmax:2 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  Net.run_until net 80.0;
  let s0 = Net.state_signature net in
  check_int "one snapshot per node" 9 (List.length s0);
  let polls = 1000 in
  let same = ref true in
  let w0 = Gc.minor_words () in
  for _ = 1 to polls do
    if not (List.equal Grp_node.same_state s0 (Net.state_signature net)) then same := false
  done;
  let per_node = (Gc.minor_words () -. w0) /. float_of_int (polls * 9) in
  check "quiet network, equal snapshots" true !same;
  if per_node > 32.0 then
    Alcotest.failf "a poll allocates %.1f words per node (bound 32)" per_node

let test_net_deactivate_reactivate () =
  let graph = Gen.line 3 in
  let net =
    Net.create ~rng:(Rng.create 5)
      ~config:(Config.make ~dmax:2 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  Net.run_until net 40.0;
  Net.deactivate net 2;
  Net.run_until net 80.0;
  check "survivors regroup" true
    (Node_id.Set.equal (Grp_node.view (Net.node net 0)) (Node_id.set_of_list [ 0; 1 ]));
  Net.activate net 2;
  Net.run_until net 140.0;
  check "rejoins" true
    (Node_id.Set.equal (Grp_node.view (Net.node net 0)) (Node_id.set_of_list [ 0; 1; 2 ]))

let test_net_add_node () =
  let graph = Gen.line 2 in
  let net =
    Net.create ~rng:(Rng.create 6)
      ~config:(Config.make ~dmax:2 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  Net.run_until net 30.0;
  Graph.add_edge graph 1 2;
  Net.add_node net 2;
  Net.run_until net 80.0;
  check "extended group" true
    (Node_id.Set.equal (Grp_node.view (Net.node net 0)) (Node_id.set_of_list [ 0; 1; 2 ]))

let test_net_stats () =
  let graph = Gen.line 2 in
  let net =
    Net.create ~rng:(Rng.create 7)
      ~config:(Config.make ~dmax:1 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  Net.run_until net 20.0;
  let s = Net.stats net in
  check "computes happened" true (s.Net.computes > 10);
  check "messages flowed" true (s.Net.deliveries > 10)

let test_net_observer () =
  let graph = Gen.line 2 in
  let net =
    Net.create ~rng:(Rng.create 8)
      ~config:(Config.make ~dmax:1 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  let additions = ref 0 in
  Net.on_step net (fun ~time:_ _ info ->
      additions := !additions + Node_id.Set.cardinal info.Grp_node.view_added);
  Net.run_until net 30.0;
  check "observer saw the admissions" true (!additions >= 2)

let test_net_rate_validation () =
  let graph = Gen.line 2 in
  let create ?loss ?corruption () =
    ignore
      (Net.create ~rng:(Rng.create 9)
         ~config:(Config.make ~dmax:1 ())
         ?loss ?corruption
         ~topology:(fun () -> graph)
         ~nodes:[ 0; 1 ] ())
  in
  Alcotest.check_raises "loss > 1"
    (Invalid_argument "Net.create: loss out of [0,1]") (create ~loss:1.5);
  Alcotest.check_raises "corruption < 0"
    (Invalid_argument "Net.create: corruption out of [0,1]")
    (create ~corruption:(-0.1));
  Alcotest.check_raises "loss NaN"
    (Invalid_argument "Net.create: loss out of [0,1]") (create ~loss:Float.nan);
  let net = make_net ~seed:9 graph in
  Alcotest.check_raises "set_loss < 0"
    (Invalid_argument "Net.set_loss: rate out of [0,1]") (fun () ->
      Net.set_loss net (-0.5));
  Alcotest.check_raises "set_corruption > 1"
    (Invalid_argument "Net.set_corruption: rate out of [0,1]") (fun () ->
      Net.set_corruption net 2.0);
  Alcotest.check_raises "set_loss NaN"
    (Invalid_argument "Net.set_loss: rate out of [0,1]") (fun () ->
      Net.set_loss net Float.nan);
  Alcotest.check_raises "set_corruption NaN"
    (Invalid_argument "Net.set_corruption: rate out of [0,1]") (fun () ->
      Net.set_corruption net Float.nan);
  Net.set_loss net 0.25;
  Net.set_corruption net 0.5;
  check_float "loss set" 0.25 (Net.loss net);
  check_float "corruption set" 0.5 (Net.corruption net)

(* --- reproducibility --- *)

let test_rounds_deterministic () =
  let run () =
    let t = Rounds.create ~config:(Config.make ~dmax:3 ()) (Gen.grid 4 4) in
    let rng = Rng.create 123 in
    Rounds.run ~jitter:0.2 ~loss:0.1 ~sends:2 ~rng t 40;
    List.map
      (fun v ->
        let n = Rounds.node t v in
        (Antlist.to_string (Grp_node.antlist n), Node_id.Set.elements (Grp_node.view n)))
      (Rounds.node_ids t)
  in
  check "same seed, same execution" true (run () = run ())

let test_net_deterministic () =
  let run () =
    let graph = Gen.ring 8 in
      let net =
      Net.create ~rng:(Rng.create 321)
        ~config:(Config.make ~dmax:2 ())
        ~loss:0.05
        ~topology:(fun () -> graph)
        ~nodes:(Graph.nodes graph) ()
    in
    Net.run_until net 60.0;
    Net.state_signature net
  in
  check "same seed, same event-driven execution" true
    (List.equal Grp_node.same_state (run ()) (run ()))

(* --- net lifecycle regressions (the timer-leak bug) --- *)

(* Deactivated nodes must stop consuming engine events: each retired timer
   fires at most once more as a no-op.  Before the generation-counter fix,
   every deactivated node kept rescheduling both its timers forever —
   3 nodes over the 100 s below would have burned ~1050 extra engine
   callbacks; the post-fix tail is a handful of stale fires plus in-flight
   deliveries. *)
let test_net_deactivate_retires_timers () =
  let graph = Gen.line 3 in
  let net =
    Net.create ~rng:(Rng.create 11)
      ~config:(Config.make ~dmax:2 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  Net.run_until net 10.0;
  Net.deactivate net 0;
  Net.deactivate net 1;
  Net.deactivate net 2;
  let fired_before = Net.fired net in
  let computes_before = (Net.stats net).Net.computes in
  Net.run_until net 110.0;
  let extra = Net.fired net - fired_before in
  check "retired timers stop firing" true (extra <= 20);
  check_int "no computes while everyone is down" computes_before
    (Net.stats net).Net.computes

(* Sustained deactivate/activate churn must keep the engine-event count
   within the analytic budget: active time × per-node rate, plus a
   constant per activation episode, plus one event per in-flight copy.
   The pre-fix leak made the count grow with the number of churn cycles
   times the remaining run time. *)
let test_net_churn_event_budget () =
  let graph = Gen.line 3 in
  let net =
    Net.create ~rng:(Rng.create 12)
      ~config:(Config.make ~dmax:2 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  let episodes = ref 3 in
  for _ = 1 to 20 do
    Net.run_until net (Net.now net +. 1.0);
    Net.deactivate net 1;
    Net.run_until net (Net.now net +. 1.0);
    Net.activate net 1;
    incr episodes
  done;
  Net.run_until net 60.0;
  let fires = Net.fired net in
  let m = Net.stats net in
  let rate = (1.0 /. 1.0) +. (1.0 /. 0.4) in
  let budget =
    int_of_float (3.0 *. 60.0 *. rate)
    + (4 * !episodes)
    + m.Net.deliveries + m.Net.drops + 30
  in
  check "engine fires within churn budget" true (fires <= budget)

let test_net_remove_node () =
  let graph = Gen.line 3 in
  let net =
    Net.create ~rng:(Rng.create 13)
      ~config:(Config.make ~dmax:2 ())
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  Net.run_until net 40.0;
  Net.remove_node net 1;
  Graph.remove_node graph 1;
  Alcotest.(check (list int)) "node forgotten" [ 0; 2 ] (Net.node_ids net);
  check "not active" false (Net.is_active net 1);
  check "state discarded" true
    (match Net.node net 1 with _ -> false | exception Not_found -> true);
  Net.remove_node net 99 (* unknown ids are a no-op *);
  Net.run_until net 90.0;
  check "survivors fall back to singletons" true
    (Node_id.Set.equal (Grp_node.view (Net.node net 0)) (Node_id.Set.singleton 0));
  (* Re-adding the same id starts from scratch, not from the old state. *)
  Graph.add_node graph 1;
  Graph.add_edge graph 0 1;
  Graph.add_edge graph 1 2;
  Net.add_node net 1;
  Net.run_until net 140.0;
  check "re-added node regroups" true
    (Node_id.Set.equal
       (Grp_node.view (Net.node net 0))
       (Node_id.set_of_list [ 0; 1; 2 ]))

(* Copies in flight to a node that deactivated are refused by the runtime
   and must surface as drops (with Msg_dropped emitted), never as
   deliveries. *)
let test_net_inflight_drop_accounting () =
  let graph = Gen.line 2 in
  let ring = Trace.Ring.create ~capacity:65536 in
  let net =
    Net.create ~rng:(Rng.create 14)
      ~config:(Config.make ~dmax:2 ())
      ~trace:(Trace.Ring.sink ring)
      ~topology:(fun () -> graph)
      ~nodes:(Graph.nodes graph) ()
  in
  Net.run_until net 20.0;
  Net.deactivate net 1;
  let before = Net.stats net in
  Net.run_until net 40.0;
  let after = Net.stats net in
  check "no deliveries to a deactivated node" true
    (after.Net.deliveries <= before.Net.deliveries + 1);
  check "refused copies counted as drops" true
    (after.Net.drops > before.Net.drops);
  check_int "ring kept every event" (Trace.Ring.seen ring) (Trace.Ring.length ring);
  let traced_drops =
    List.length
      (List.filter
         (fun (_, ev) -> match ev with Trace.Msg_dropped _ -> true | _ -> false)
         (Trace.Ring.contents ring))
  in
  check "Msg_dropped emitted" true (traced_drops > 0);
  check_int "trace agrees with the drop counter" after.Net.drops
    traced_drops

(* --- zero-allocation pins --- *)

(* [Grp_node.receive] appends to the reusable flat inbox: after the
   buffer has grown to the burst size, receiving is pure array writes.
   Half the measured burst goes through [receive_lid] with a non-trivial
   lineage id — the provenance lane writes an int alongside the message
   and must be exactly as allocation-free as the plain path. *)
let test_receive_zero_alloc () =
  let config = Config.make ~dmax:3 () in
  let node = Grp_node.create ~config 1 in
  let peer = Grp_node.create ~config 2 in
  let msg = Grp_node.make_message peer in
  (* Warm-up burst grows the inbox; compute drains it (and is the only
     allocating step, outside the measured window). *)
  for _ = 1 to 10_000 do
    Grp_node.receive node msg
  done;
  ignore (Grp_node.compute node);
  let w0 = Gc.minor_words () in
  for i = 1 to 5_000 do
    Grp_node.receive node msg;
    Grp_node.receive_lid node ~lid:((2 lsl 20) lor i) msg
  done;
  let delta = Gc.minor_words () -. w0 in
  check_float "minor words delta" 0.0 delta

let suite =
  [
    ("engine time order", `Quick, test_engine_order);
    ("engine fifo on ties", `Quick, test_engine_fifo_ties);
    ("engine horizon", `Quick, test_engine_horizon);
    ("engine cascading events", `Quick, test_engine_cascading);
    ("engine rejects the past", `Quick, test_engine_past_rejected);
    ("engine fire order and count", `Quick, test_engine_fire_order);
    ("net broadcast reaches each once", `Quick, test_net_broadcast);
    ("net total loss", `Quick, test_net_total_loss);
    ("net loss rate", `Quick, test_net_loss_rate);
    ("rounds message count", `Quick, test_rounds_message_count);
    ("rounds stabilizes a pair", `Quick, test_rounds_stabilizes_pair);
    ("rounds loss needs rng", `Quick, test_rounds_loss_requires_rng);
    ( "rounds traces an unparsable frame as dropped",
      `Quick,
      test_rounds_unparsable_frame_dropped );
    ("rounds rejects rates outside [0,1] and NaN", `Quick, test_rounds_rate_validation);
    ("rounds sends multiplier", `Quick, test_rounds_sends_multiplies);
    ("rounds set_graph adds nodes", `Quick, test_rounds_set_graph_adds_nodes);
    ("rounds views map", `Quick, test_rounds_views_map);
    ("net converges", `Quick, test_net_converges);
    ("net signature stabilizes", `Quick, test_net_signature_stabilizes);
    ("net signature poll allocates O(n) words", `Quick, test_net_signature_alloc);
    ("net deactivate/reactivate", `Quick, test_net_deactivate_reactivate);
    ("net add node", `Quick, test_net_add_node);
    ("net stats", `Quick, test_net_stats);
    ("net observer", `Quick, test_net_observer);
    ("net rate validation", `Quick, test_net_rate_validation);
    ("net deactivate retires timers", `Quick, test_net_deactivate_retires_timers);
    ("net churn event budget", `Quick, test_net_churn_event_budget);
    ("net remove node", `Quick, test_net_remove_node);
    ("net in-flight drop accounting", `Quick, test_net_inflight_drop_accounting);
    ("rounds runner is deterministic", `Quick, test_rounds_deterministic);
    ("net runtime is deterministic", `Quick, test_net_deterministic);
    ("receive burst allocates nothing", `Quick, test_receive_zero_alloc);
  ]
