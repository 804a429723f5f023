(* Compute elision: after a fixpoint compute, a node fed physically the
   same messages again skips [Grp_node.compute] and [make_message]
   returns its previous message; fed messages whose lists and views are
   physically the same, it rebuilds only its priority table and message
   and reuses the fixpoint's decisions.  An enabled trace sink turns
   both off, so a traced run is the elision-off reference: the
   differential property drives the same simulation twice and demands
   identical protocol state, step results, messages and counters.  The
   allocation pins fix what the elision buys on a quiet node. *)

module Rounds = Dgs_sim.Rounds
module Sharded = Dgs_sim.Sharded
module Graph = Dgs_graph.Graph
module Int_set = Dgs_util.Int_set
module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
module Harness = Dgs_workload.Harness
module Arbitrary = Dgs_check.Arbitrary
open Dgs_core

let config = Config.make ~dmax:3 ()

(* One simulation under test, over either runner. *)
type sim = {
  node : Node_id.t -> Grp_node.t;
  ids : unit -> Node_id.t list;
  step : unit -> Grp_node.step_info Node_id.Map.t;
  graph : unit -> Graph.t;
  set_graph : Graph.t -> unit;
  snapshot : unit -> Registry.snapshot;
}

let sink ~traced =
  if traced then Trace.Ring.sink (Trace.Ring.create ~capacity:64) else Trace.null

let sharded ~config ~traced ~seed g =
  let regs = ref [] in
  let make_metrics _ =
    let r = Registry.create () in
    regs := r :: !regs;
    r
  in
  let s =
    Sharded.create ~config ~shards:2 ~seed ~make_trace:(fun _ -> sink ~traced)
      ~make_metrics g
  in
  {
    node = Sharded.node s;
    ids = (fun () -> Sharded.node_ids s);
    step = (fun () -> Sharded.round ~jitter:0.1 s);
    graph = (fun () -> Sharded.graph s);
    set_graph = Sharded.set_graph s;
    snapshot = (fun () -> Registry.merge (List.map Registry.snapshot !regs));
  }

let lossy_rounds ~config ~traced ~seed g =
  let reg = Registry.create () in
  let r = Rounds.create ~config ~trace:(sink ~traced) ~metrics:reg g in
  let rng = Rng.create seed in
  {
    node = Rounds.node r;
    ids = (fun () -> Rounds.node_ids r);
    step = (fun () -> Rounds.round ~loss:0.1 ~corruption:0.05 ~sends:2 ~rng r);
    graph = (fun () -> Rounds.graph r);
    set_graph = Rounds.set_graph r;
    snapshot = (fun () -> Registry.snapshot reg);
  }

let pr (p : Priority.t) = Printf.sprintf "%d@%d" p.Priority.oldness p.Priority.id
let set s = Format.asprintf "%a" Node_id.pp_set s

(* Everything observable about a node — including the message it would
   send now — compared structurally, and rendered for the failure
   message. *)
let same_node a b =
  let ma = Grp_node.make_message a and mb = Grp_node.make_message b in
  let known n v = Grp_node.known_priority n v in
  Node_id.Set.equal (Grp_node.view a) (Grp_node.view b)
  && Antlist.equal (Grp_node.antlist a) (Grp_node.antlist b)
  && Node_id.Map.equal Int.equal (Grp_node.quarantines a) (Grp_node.quarantines b)
  && Priority.equal (Grp_node.own_priority a) (Grp_node.own_priority b)
  && (not
        (Antlist.exists (Grp_node.antlist a) ~f:(fun v _ _ ->
             Option.equal Priority.equal (known a v) (known b v) |> not)))
  && Node_id.Set.equal (Grp_node.convictions a) (Grp_node.convictions b)
  && Node_id.equal ma.Message.sender mb.Message.sender
  && Antlist.equal ma.Message.antlist mb.Message.antlist
  && List.equal
       (fun (u, p) (v, q) -> Node_id.equal u v && Priority.equal p q)
       (Message.priority_bindings ma) (Message.priority_bindings mb)
  && Priority.equal ma.Message.group_priority mb.Message.group_priority
  && Node_id.Set.equal ma.Message.view mb.Message.view

let render_node n =
  let lst = Grp_node.antlist n in
  let known =
    Antlist.fold_entries lst ~init:[] ~f:(fun acc v _ _ ->
        match Grp_node.known_priority n v with
        | Some p -> Printf.sprintf "%d:%s" v (pr p) :: acc
        | None -> acc)
  in
  let q =
    Node_id.Map.fold (fun v k acc -> Printf.sprintf "%d:%d" v k :: acc)
      (Grp_node.quarantines n) []
  in
  let m = Grp_node.make_message n in
  let prios =
    List.rev_map (fun (v, p) -> Printf.sprintf "%d:%s" v (pr p))
      (Message.priority_bindings m)
  in
  Printf.sprintf "view=%s list=%s q=[%s] pr=%s known=[%s] conv=%s | msg %d %s [%s] %s %s"
    (set (Grp_node.view n)) (Antlist.to_string lst) (String.concat ";" q)
    (pr (Grp_node.own_priority n)) (String.concat ";" known)
    (set (Grp_node.convictions n)) m.Message.sender
    (Antlist.to_string m.Message.antlist) (String.concat ";" prios)
    (pr m.Message.group_priority) (set m.Message.view)

let same_step (a : Grp_node.step_info) (b : Grp_node.step_info) =
  Node_id.Set.equal a.view_added b.view_added
  && Node_id.Set.equal a.view_removed b.view_removed
  && a.too_far_conflict = b.too_far_conflict
  && List.equal
       (fun (w, ps) (w', ps') -> Node_id.equal w w' && Node_id.Set.equal ps ps')
       a.contest_wins b.contest_wins

let render_steps infos =
  Node_id.Map.bindings infos
  |> List.map (fun (v, (i : Grp_node.step_info)) ->
         Printf.sprintf "%d:+%s -%s far=%b wins=[%s]" v (set i.view_added)
           (set i.view_removed) i.too_far_conflict
           (String.concat ";"
              (List.map (fun (w, ps) -> Printf.sprintf "%d<%s" w (set ps)) i.contest_wins)))
  |> String.concat " "

(* The two sims side by side, plus what the untraced one reuses: a
   [make_message] result or a step result physically equal to the
   previous round's can only come from the message cache and the
   elision.  A reused step counts as elided when the neighbours
   broadcast physically the same messages as at the node's previous
   compute, and as a decision reuse when some message changed. *)
type pair = {
  on : sim;
  off : sim;
  mutable round : int;
  mutable msg_reused : int;
  mutable step_reused : int;
  mutable decisions_reused : int;
  last_msg : (Node_id.t, Message.t) Hashtbl.t;
  last_step : (Node_id.t, Grp_node.step_info) Hashtbl.t;
  last_inputs : (Node_id.t, Message.t list) Hashtbl.t;
}

let fail fmt = Printf.ksprintf failwith fmt

let compare_nodes p =
  List.iter
    (fun v ->
      let a = p.on.node v and b = p.off.node v in
      if not (same_node a b) then
        fail "round %d node %d:\n  on:  %s\n  off: %s" p.round v (render_node a)
          (render_node b);
      let m = Grp_node.make_message (p.on.node v) in
      (match Hashtbl.find_opt p.last_msg v with
      | Some m' when m' == m -> p.msg_reused <- p.msg_reused + 1
      | _ -> ());
      Hashtbl.replace p.last_msg v m)
    (p.on.ids ())

(* One round on both sims. *)
let step p =
  p.round <- p.round + 1;
  (* what each node broadcasts this round; the runner builds the same *)
  let g = p.on.graph () in
  let sent = Hashtbl.create 64 in
  List.iter
    (fun u -> Hashtbl.replace sent u (Grp_node.make_message (p.on.node u)))
    (p.on.ids ());
  let a = p.on.step () and b = p.off.step () in
  if not (Node_id.Map.equal same_step a b) then
    fail "round %d: step results differ:\n  on:  %s\n  off: %s" p.round
      (render_steps a) (render_steps b);
  Node_id.Map.iter
    (fun v i ->
      let inputs =
        Int_set.fold (fun u acc -> Hashtbl.find sent u :: acc) (Graph.neighbors g v) []
      in
      (match Hashtbl.find_opt p.last_step v with
      | Some i' when i' == i -> (
          match Hashtbl.find_opt p.last_inputs v with
          | Some inputs' when List.equal ( == ) inputs inputs' ->
              p.step_reused <- p.step_reused + 1
          | _ -> p.decisions_reused <- p.decisions_reused + 1)
      | _ -> ());
      Hashtbl.replace p.last_step v i;
      Hashtbl.replace p.last_inputs v inputs)
    a;
  compare_nodes p

(* Rounds until the network has settled by the runners' rule
   ([Grp_node.quiet_rounds] rounds of unchanged state), within [budget]. *)
let run_quiet p ~config ~budget =
  let states () = List.map (fun v -> Grp_node.state (p.on.node v)) (p.on.ids ()) in
  let rec go before ~quiet ~budget =
    if quiet < Grp_node.quiet_rounds config && budget > 0 then begin
      step p;
      let now = states () in
      go now
        ~quiet:(if List.equal Grp_node.same_state before now then quiet + 1 else 0)
        ~budget:(budget - 1)
    end
  in
  go (states ()) ~quiet:0 ~budget

let run p k = for _ = 1 to k do step p done

(* Each of the five fault hooks, with the same drawn arguments on both
   sides, on a node of the (by now quiet) network. *)
let corrupt p rng hook =
  let ids = Array.of_list (p.on.ids ()) in
  let n = Array.length ids in
  let v = ids.(Rng.int rng n) in
  let some_member () =
    let members =
      Antlist.ids (Grp_node.antlist (p.on.node v))
      |> Node_id.Set.add v |> Node_id.Set.elements |> Array.of_list
    in
    members.(Rng.int rng (Array.length members))
  in
  let apply f = f (p.on.node v); f (p.off.node v) in
  match hook with
  | 0 ->
      let l = Arbitrary.antlist rng in
      apply (fun x -> Grp_node.corrupt_list x l)
  | 1 ->
      let s = Arbitrary.node_set rng ~max_id:(n - 1) in
      apply (fun x -> Grp_node.corrupt_view x s)
  | 2 ->
      let u = some_member () and k = Rng.int rng 4 in
      apply (fun x -> Grp_node.corrupt_quarantine x [ (u, k) ])
  | 3 ->
      let pv = { Priority.oldness = Rng.int rng 50; id = v } in
      apply (fun x -> Grp_node.corrupt_priority x pv)
  | _ ->
      let u = some_member () in
      let pu = { Priority.oldness = Rng.int rng 50; id = u } in
      apply (fun x -> Grp_node.corrupt_priority_table x [ (u, pu) ])

let non_timer (s : Registry.snapshot) = (s.Registry.counters, s.Registry.histograms)

(* One differential case: both sims through scenario (a)-(d), then the
   merged counters and the non-vacuity checks — the elision's only when
   [must_elide].  Fails with a report; returns the elided computes and
   the decision reuses. *)
let run_case ?(must_elide = true) (scenario, n, seed, dmax, cooldown) =
  (* (b) and (d) never wait for stability: half the size covers them *)
  let g = Harness.rgg ~seed ~n:(if scenario mod 2 = 1 then n / 2 else n) () in
  let config = Config.make ~dmax ~contest_cooldown_enabled:cooldown () in
  let make = if scenario = 1 then lossy_rounds ~config else sharded ~config in
  let p =
    {
      on = make ~traced:false ~seed g;
      off = make ~traced:true ~seed g;
      round = 0;
      msg_reused = 0;
      step_reused = 0;
      decisions_reused = 0;
      last_msg = Hashtbl.create 64;
      last_step = Hashtbl.create 64;
      last_inputs = Hashtbl.create 64;
    }
  in
  let rng = Rng.create (seed + 1) in
  (match scenario with
  | 0 ->
      (* (a) stabilize, then every fault hook on a quiet node *)
      run_quiet p ~config ~budget:300;
      for hook = 0 to 4 do
        corrupt p rng hook;
        step p
      done;
      run p 60
  | 1 -> (* (b) lossy, corrupting, double-send rounds *) run p 60
  | 2 ->
      (* (c) stabilize, then lose one edge *)
      run_quiet p ~config ~budget:300;
      let edges = Array.of_list (Graph.edges g) in
      let u, w = edges.(Rng.int rng (Array.length edges)) in
      let g' = Graph.copy g in
      Graph.remove_edge g' u w;
      p.on.set_graph g';
      p.off.set_graph (Graph.copy g');
      run p 30
  | _ ->
      (* (d) cut a quarter of the nodes off mid-convergence: a node
         isolated during a contest cooldown sits solo with its own
         priority frozen, then must resume aging *)
      run p (1 + Rng.int rng 20);
      let g' = Graph.copy g in
      List.iter
        (fun v ->
          if Rng.int rng 4 = 0 then
            Int_set.iter (fun u -> Graph.remove_edge g' v u) (Graph.neighbors g v))
        (Graph.nodes g);
      p.on.set_graph g';
      p.off.set_graph (Graph.copy g');
      (* until quiet, within 300 rounds: some draws are still converging
         30 rounds after the cut, with nothing yet to elide *)
      run_quiet p ~config ~budget:300);
  if non_timer (p.on.snapshot ()) <> non_timer (p.off.snapshot ()) then
    fail "merged counters differ";
  if p.msg_reused = 0 then fail "no make_message was reused across rounds";
  if must_elide && scenario <> 1 && p.step_reused = 0 then fail "no compute was elided";
  (p.step_reused, p.decisions_reused)

(* Elided computes over the random (d) draws of one property run, and
   decision reuses over its lossless draws.  A single (d) draw may elide
   nothing: a solo node ages on every compute, so the messages around it
   never repeat.  Its neighbours reuse their decisions instead, and
   draws need not keep a solo node, so both are demanded of the draws
   together.  Under (b)'s loss a node's inputs are not its neighbours'
   broadcasts, so [step] cannot tell its elisions from its reuses. *)
let d_draws = ref 0
let d_elided = ref 0
let decisions_reused = ref 0

let run_drawn_case ((scenario, _, _, _, _) as case) =
  let elided, reused = run_case ~must_elide:(scenario <> 3) case in
  if scenario <> 1 then decisions_reused := !decisions_reused + reused;
  if scenario = 3 then begin
    incr d_draws;
    d_elided := !d_elided + elided
  end

let prop_elision_transparent =
  let gen =
    QCheck.Gen.(
      let* scenario = int_range 0 3 in
      let* n = int_range 20 80 in
      let* seed = int_range 1 10_000 in
      let* dmax = int_range 2 3 in
      let* cooldown = bool in
      return (scenario, n, seed, dmax, cooldown))
  in
  let print (scenario, n, seed, dmax, cooldown) =
    Printf.sprintf "scenario=%c n=%d seed=%d dmax=%d cooldown=%b" "abcd".[scenario] n
      seed dmax cooldown
  in
  QCheck.Test.make ~count:50 ~name:"compute elision on ≡ off (traced reference)"
    (QCheck.make ~print gen)
    (fun case ->
      run_drawn_case case;
      true)

let test_elision_transparent =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_elision_transparent in
  ( name,
    speed,
    fun () ->
      d_draws := 0;
      d_elided := 0;
      decisions_reused := 0;
      run ();
      if !d_draws > 0 && !d_elided = 0 then
        Alcotest.failf "no compute was elided over %d (d) draws" !d_draws;
      if !decisions_reused = 0 then Alcotest.fail "no compute reused the fixpoint's decisions" )

(* --- allocation and identity pins --- *)

(* One synchronous round on the 3-node path 0-1-2, trace and metrics
   off, its messages exchanged by hand; the nodes' step results. *)
let exchange nodes =
  let msgs = Array.map Grp_node.make_message nodes in
  Grp_node.receive nodes.(0) msgs.(1);
  Grp_node.receive nodes.(1) msgs.(0);
  Grp_node.receive nodes.(1) msgs.(2);
  Grp_node.receive nodes.(2) msgs.(1);
  Array.map Grp_node.compute nodes

(* The path stabilized at Dmax 3, where it forms one group. *)
let quiet_path () =
  let nodes = Array.init 3 (Grp_node.create ~config) in
  for _ = 1 to 40 do ignore (exchange nodes) done;
  Alcotest.(check string) "path stabilized into one group" "{0,1,2}"
    (set (Grp_node.view nodes.(1)));
  nodes

let test_make_message_zero_alloc () =
  let nodes = quiet_path () in
  let middle = nodes.(1) in
  let m0 = Grp_node.make_message middle in
  let same = ref true in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Grp_node.make_message middle != m0 then same := false
  done;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "physically the same message" true !same;
  Alcotest.(check (float 1e-9)) "minor words delta" 0.0 delta

(* A message rebuilt for a changed list allocates its two priority
   arrays and its record, nothing per entry: the middle of the quiet path
   loses node 2 from its list, so the table's entries for 0 and 1 are
   filtered into fresh 2-slot arrays (3 words each), plus the 7-word
   record. *)
let test_rebuilt_message_alloc () =
  let nodes = quiet_path () in
  let middle = nodes.(1) in
  let before = Grp_node.make_message middle in
  Grp_node.corrupt_list middle
    (Antlist.of_levels [ [ (1, Mark.Clear) ]; [ (0, Mark.Clear) ] ]);
  let w0 = Gc.minor_words () in
  let m = Grp_node.make_message middle in
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "a new message" true (m != before);
  Alcotest.(check (list int)) "priorities of the list members" [ 0; 1 ]
    (List.map fst (Message.priority_bindings m));
  Alcotest.(check (float 0.0)) "minor words" 13.0 delta

(* An elided compute allocates nothing: [ingest] writes the inbox into
   the domain's sender table and compares it with the fixpoint's
   messages in place. *)
let test_elided_compute_alloc () =
  let nodes = quiet_path () in
  let m0 = Grp_node.make_message nodes.(0) and m2 = Grp_node.make_message nodes.(2) in
  let middle = nodes.(1) in
  Grp_node.receive middle m0;
  Grp_node.receive middle m2;
  let step0 = Grp_node.compute middle in
  let same = ref true in
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Grp_node.receive middle m0;
    Grp_node.receive middle m2;
    if Grp_node.compute middle != step0 then same := false
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check bool) "every compute elided" true !same;
  Alcotest.(check (float 0.0)) "minor words per call" 0.0 per_call;
  Alcotest.(check bool) "message still reused" true
    (Grp_node.make_message middle == Grp_node.make_message middle)

(* The path at Dmax 1 settles into the pair {0,1} and the solo node 2,
   whose neighbouring group is full.  The solo node ages on every
   compute, so its message changes every round, and so does node 1's,
   which gossips that priority — in the priority fields only.  Nodes 0
   and 1 decided nothing that read a priority, so each of their computes
   rebuilds the priority table and message and returns the fixpoint's
   step (physically); node 2's own priority moves, so it is no fixpoint
   and computes in full.  Without decision reuse, no input repeats and
   no step is reused. *)
let solo_path () =
  let nodes = Array.init 3 (Grp_node.create ~config:(Config.make ~dmax:1 ())) in
  let steps = ref [||] in
  for _ = 1 to 40 do steps := exchange nodes done;
  Alcotest.(check (list string)) "views of the settled path" [ "{0,1}"; "{0,1}"; "{2}" ]
    (List.map (fun n -> set (Grp_node.view n)) (Array.to_list nodes));
  (nodes, !steps)

let test_decision_reuse_witness () =
  let nodes, steps = solo_path () in
  let reused = Array.make 3 0 and msg1_changed = ref 0 in
  let oldness () = (Grp_node.own_priority nodes.(2)).Priority.oldness in
  let o40 = oldness () in
  let prev = ref steps in
  for _ = 41 to 80 do
    let m1 = Grp_node.make_message nodes.(1) in
    let steps = exchange nodes in
    let m1' = Grp_node.make_message nodes.(1) in
    if m1' != m1 then begin
      incr msg1_changed;
      (* only the gossiped priority of the solo node moved *)
      Alcotest.(check bool) "node 1's list and view kept physically" true
        (m1'.Message.antlist == m1.Message.antlist && m1'.Message.view == m1.Message.view)
    end;
    Array.iteri (fun v st -> if st == !prev.(v) then reused.(v) <- reused.(v) + 1) steps;
    prev := steps
  done;
  Alcotest.(check int) "solo node aged every round" (o40 + 40) (oldness ());
  Alcotest.(check int) "node 1's message changed every round" 40 !msg1_changed;
  Alcotest.(check (list int)) "fixpoint steps returned, rounds 41-80" [ 40; 40; 0 ]
    (Array.to_list reused)

(* A decision-reuse compute allocates the priority table's two arrays and
   the rebuilt message, nothing per sender or decision: for the degree-2
   middle node of the Dmax-1 path, two 4-word arrays for its table of 0,
   1 and the marked 2, and the 7-word message record (the message is
   rebuilt every round: it gossips the solo node's new priority): 15
   words. *)
let test_decision_reuse_alloc () =
  let nodes, steps = solo_path () in
  let middle = nodes.(1) in
  let words = ref [] and reused = ref true in
  for _ = 41 to 80 do
    let msgs = Array.map Grp_node.make_message nodes in
    Grp_node.receive nodes.(0) msgs.(1);
    Grp_node.receive middle msgs.(0);
    Grp_node.receive middle msgs.(2);
    Grp_node.receive nodes.(2) msgs.(1);
    let w0 = Gc.minor_words () in
    let step = Grp_node.compute middle in
    words := (Gc.minor_words () -. w0) :: !words;
    if step != steps.(1) then reused := false;
    ignore (Grp_node.compute nodes.(0));
    ignore (Grp_node.compute nodes.(2))
  done;
  Alcotest.(check bool) "every compute reused the fixpoint's decisions" true !reused;
  Alcotest.(check (list (float 0.0))) "minor words per compute" (List.init 40 (fun _ -> 15.0))
    !words

(* Cases the random property only sometimes draws, each once caught
   breaking one fixpoint condition: (c) with the cooldown off, where a
   contest can win the same way every compute; (d), where an isolated
   node's frozen own priority must resume aging once the cooldown ends.
   The last four are (d) draws still converging 30 rounds after the cut,
   which failed the non-vacuity check while (d) ran a fixed 30 rounds. *)
let test_pinned_cases () =
  List.iter
    (fun case -> ignore (run_case case))
    [
      (2, 41, 8265, 3, false);
      (3, 32, 834, 2, true);
      (3, 41, 2300, 3, false);
      (3, 38, 5594, 3, true);
      (3, 39, 4436, 3, false);
      (3, 39, 4436, 3, true);
    ];
  (* (d) draws that end their run with no compute elided (quiet views
     are no fixpoint, see [run_drawn_case]), so they failed the per-draw
     elision check this property once made: on ≡ off only. *)
  List.iter
    (fun case -> ignore (run_case ~must_elide:false case))
    [ (3, 39, 3944, 3, true); (3, 24, 9554, 3, false) ]

let suite =
  [
    ("elision on ≡ off on pinned cases", `Quick, test_pinned_cases);
    ("quiet make_message allocates nothing", `Quick, test_make_message_zero_alloc);
    ("rebuilt message allocates arrays and record only", `Quick, test_rebuilt_message_alloc);
    ("elided compute allocates nothing", `Quick, test_elided_compute_alloc);
    ("priority-only changes reuse the fixpoint's decisions", `Quick, test_decision_reuse_witness);
    ("decision reuse allocates the table and message only", `Quick, test_decision_reuse_alloc);
  ]
  @ [ test_elision_transparent ]
