(* Production [Grp_node] against the cache-free reference node
   ([Grp_reference]): both are driven through the same synchronous rounds
   on the same graph — the same per-round skip set, the same arbitrary
   initial states applied through the [corrupt_*] hooks, the same
   mid-run cut — and must agree every round on the view, the list with
   its marks, the quarantine table, the own priority, the whole priority
   table, the convictions, the step result and the message each node
   sends.

   Production nodes run untraced, so the compute elision, message reuse,
   the per-compute id index and extent memo, the refold skip and
   [cross_check]'s empty-fresh return are all live on the production
   side; the reference has none of them.

   [dune build @reference-long] runs the random property with
   [QCHECK_LONG] set, at [long_factor] times its runtest count. *)

module Graph = Dgs_graph.Graph
module Gen = Dgs_graph.Gen
module Int_set = Dgs_util.Int_set
module Rng = Dgs_util.Rng
module Harness = Dgs_workload.Harness
module Arbitrary = Dgs_check.Arbitrary
module Scenario = Dgs_check.Scenario
module R = Grp_reference
open Dgs_core

type case = {
  graph : string;  (** how [graph_of] builds the topology *)
  dmax : int;
  flags : int;  (** [Config] toggles switched off: see [config_of] *)
  jitter : bool;  (** skip each compute with probability 0.1 *)
  corrupt : bool;  (** start ~30% of the nodes from arbitrary states *)
  cut : bool;  (** cut a quarter of the nodes off at mid-run *)
  seed : int;  (** skip sets, initial states and the cut *)
  rounds : int;
}

let print_case c =
  Printf.sprintf "graph=%s dmax=%d flags=%d jitter=%b corrupt=%b cut=%b seed=%d rounds=%d"
    c.graph c.dmax c.flags c.jitter c.corrupt c.cut c.seed c.rounds

let config_of c =
  let on bit = c.flags land (1 lsl bit) = 0 in
  Config.make ~dmax:c.dmax ~quarantine_enabled:(on 0) ~compat_shortcut_enabled:(on 1)
    ~joint_admission_enabled:(on 2) ~admission_gate_enabled:(on 3)
    ~contest_cooldown_enabled:(on 4)
    ~priority_mode:(if on 5 then Config.Oldness else Config.Lowest_id)
    ()

(* The regression corpus, known livelocks included: each script's initial
   topology and Dmax (its schedule is the fuzzer's business). *)
let corpus =
  let dir d =
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (Filename.concat d)
  in
  lazy
    (List.map
       (fun path ->
         match Scenario.load path with
         | Some sc -> (path, Scenario.build sc.Scenario.topology, sc.Scenario.dmax)
         | None -> failwith ("cannot load " ^ path))
       (dir "regressions" @ dir (Filename.concat "regressions" "known-livelocks")))

(* Small symmetric shapes, beside the corpus's ring7 and 2x2/2x3 grids:
   lockstep rounds are their adversarial schedule.  The Dmax-1 path
   settles beside a solo node that ages forever, so its neighbours reuse
   their decisions on every compute. *)
let pinned =
  [
    ("ring7", Gen.ring 7, 2);
    ("ring8", Gen.ring 8, 3);
    ("grid3x3", Gen.grid 3 3, 2);
    ("path3", Gen.line 3, 1);
  ]

let fixed () = Lazy.force corpus @ pinned

let graph_of c =
  match String.split_on_char ' ' c.graph with
  | [ "rgg"; n; seed ] ->
      Harness.rgg ~seed:(int_of_string seed) ~n:(int_of_string n) ~density:4.0 ()
  | [ "star"; n ] -> Gen.star (int_of_string n)
  | [ "er"; n; seed ] ->
      let n = int_of_string n in
      Gen.erdos_renyi (Rng.create (int_of_string seed)) ~n ~p:(3.0 /. float_of_int n)
  | _ ->
      let _, g, _ = List.find (fun (name, _, _) -> name = c.graph) (fixed ()) in
      g

(* --- comparison --- *)

let pr (p : Priority.t) = Printf.sprintf "%d@%d" p.Priority.oldness p.Priority.id
let set s = Format.asprintf "%a" Node_id.pp_set s

let prios bindings =
  String.concat ";" (List.map (fun (v, p) -> Printf.sprintf "%d:%s" v (pr p)) bindings)

let prios_int bindings =
  String.concat ";" (List.map (fun (v, k) -> Printf.sprintf "%d:%d" v k) bindings)

let same_prios a b =
  List.equal (fun (u, p) (v, q) -> Node_id.equal u v && Priority.equal p q) a b

let same_step (a : Grp_node.step_info) (b : Grp_node.step_info) =
  Node_id.Set.equal a.view_added b.view_added
  && Node_id.Set.equal a.view_removed b.view_removed
  && a.too_far_conflict = b.too_far_conflict
  && List.equal
       (fun (w, ps) (w', ps') -> Node_id.equal w w' && Node_id.Set.equal ps ps')
       a.contest_wins b.contest_wins

let render_step (i : Grp_node.step_info) =
  Printf.sprintf "+%s -%s far=%b wins=[%s]" (set i.view_added) (set i.view_removed)
    i.too_far_conflict
    (String.concat ";"
       (List.map (fun (w, ps) -> Printf.sprintf "%d<%s" w (set ps)) i.contest_wins))

(* Every id a table can hold: the graph's nodes and the ids arbitrary
   lists draw ([0, 10)). *)
let table_ids ~max_id = List.init (max max_id 9 + 1) Fun.id

(* One node's compared state, rendered for a failure report. *)
let render_prod ~max_id n =
  let m = Grp_node.make_message n in
  let table =
    List.filter_map
      (fun v -> Option.map (fun p -> (v, p)) (Grp_node.known_priority n v))
      (table_ids ~max_id)
  in
  Printf.sprintf "view=%s list=%s q=[%s] pr=%s table=[%s] conv=%s | msg %d %s [%s] %s %s"
    (set (Grp_node.view n))
    (Antlist.to_string (Grp_node.antlist n))
    (prios_int (Node_id.Map.bindings (Grp_node.quarantines n)))
    (pr (Grp_node.own_priority n)) (prios table)
    (set (Grp_node.convictions n))
    m.Message.sender (Antlist.to_string m.Message.antlist)
    (prios (Message.priority_bindings m))
    (pr m.Message.group_priority) (set (Node_id.set_of_list (Array.to_list m.Message.view)))

let render_ref (n : R.t) =
  let m = R.message n in
  Printf.sprintf "view=%s list=%s q=[%s] pr=%s table=[%s] conv=%s | msg %d %s [%s] %s %s"
    (set n.R.view) (Antlist.to_string n.R.antlist)
    (prios_int (Node_id.Map.bindings n.R.quarantine))
    (pr n.R.own) (prios (Node_id.Map.bindings n.R.table))
    (set (R.convictions n)) m.R.sender (Antlist.to_string m.R.antlist)
    (prios (Node_id.Map.bindings m.R.priorities))
    (pr m.R.group_priority) (set m.R.view)

(* The same state compared structurally: rendering every node every
   round would double the property's run time. *)
let same_node ~max_id p (r : R.t) =
  let m = Grp_node.make_message p and mr = R.message r in
  Node_id.Set.equal (Grp_node.view p) r.R.view
  && Antlist.equal (Grp_node.antlist p) r.R.antlist
  && Node_id.Map.equal Int.equal (Grp_node.quarantines p) r.R.quarantine
  && Priority.equal (Grp_node.own_priority p) r.R.own
  && List.for_all
       (fun v ->
         Option.equal Priority.equal (Grp_node.known_priority p v)
           (Node_id.Map.find_opt v r.R.table))
       (table_ids ~max_id)
  && Node_id.Set.equal (Grp_node.convictions p) (R.convictions r)
  && Node_id.equal m.Message.sender mr.R.sender
  && Antlist.equal m.Message.antlist mr.R.antlist
  && same_prios (Message.priority_bindings m) (Node_id.Map.bindings mr.R.priorities)
  && Priority.equal m.Message.group_priority mr.R.group_priority
  && Array.to_list m.Message.view = Node_id.Set.elements mr.R.view

(* --- running both sides --- *)

(* Initial arbitrary state of one node, drawn once and applied to both. *)
let corrupt_both rng ~max_id p r =
  let v = Grp_node.id p in
  (match Rng.int rng 3 with
  | 0 -> ()
  | _ ->
      let l = Arbitrary.antlist rng in
      Grp_node.corrupt_list p l;
      R.corrupt_list r l);
  if Rng.bool rng then begin
    let s = Arbitrary.node_set rng ~max_id in
    Grp_node.corrupt_view p s;
    R.corrupt_view r s
  end;
  if Rng.bool rng then begin
    let qs = List.init (Rng.int rng 3) (fun _ -> (Rng.int rng (max_id + 1), Rng.int rng 4)) in
    Grp_node.corrupt_quarantine p qs;
    R.corrupt_quarantine r qs
  end;
  if Rng.bool rng then begin
    let pv = { Priority.oldness = Rng.int rng 50; id = v } in
    Grp_node.corrupt_priority p pv;
    R.corrupt_priority r pv
  end;
  if Rng.bool rng then begin
    let ps =
      List.init (Rng.int rng 3) (fun _ ->
          let u = Rng.int rng (max_id + 1) in
          (u, { Priority.oldness = Rng.int rng 50; id = u }))
    in
    Grp_node.corrupt_priority_table p ps;
    R.corrupt_priority_table r ps
  end

let fail fmt = Printf.ksprintf failwith fmt

(* With [fresh_scratch], every production compute runs on a domain of
   its own, so it starts from fresh per-domain scratch. *)
let run_case ?(fresh_scratch = false) c =
  let config = config_of c in
  let g = ref (graph_of c) in
  let ids = Graph.nodes !g in
  let max_id = List.fold_left max 0 ids in
  let prod = Hashtbl.create 64 and refn = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Hashtbl.replace prod v (Grp_node.create ~config v);
      Hashtbl.replace refn v (R.create ~config v))
    ids;
  let rng = Rng.create c.seed in
  if c.corrupt then
    List.iter
      (fun v ->
        if Rng.int rng 10 < 3 then
          corrupt_both rng ~max_id (Hashtbl.find prod v) (Hashtbl.find refn v))
      ids;
  for round = 1 to c.rounds do
    if c.cut && round = (c.rounds / 2) + 1 then begin
      let g' = Graph.copy !g in
      List.iter
        (fun v ->
          if Rng.int rng 4 = 0 then
            Int_set.iter (fun u -> Graph.remove_edge g' v u) (Graph.neighbors !g v))
        ids;
      g := g'
    end;
    let skip =
      List.filter (fun _ -> c.jitter && Rng.bernoulli rng 0.1) ids |> Node_id.set_of_list
    in
    List.map
      (fun v -> (v, Grp_node.make_message (Hashtbl.find prod v), R.message (Hashtbl.find refn v)))
      ids
    |> List.iter (fun (v, mp, mr) ->
           Graph.iter_neighbors !g v (fun u ->
               Grp_node.receive (Hashtbl.find prod u) mp;
               R.receive (Hashtbl.find refn u) mr));
    List.iter
      (fun v ->
        if not (Node_id.Set.mem v skip) then begin
          let p = Hashtbl.find prod v and r = Hashtbl.find refn v in
          let sp =
            if fresh_scratch then Domain.join (Domain.spawn (fun () -> Grp_node.compute p))
            else Grp_node.compute p
          in
          let sr = R.compute r in
          if not (same_step sp sr) then
            fail "round %d node %d: step differs\n  prod: %s\n  ref:  %s" round v
              (render_step sp) (render_step sr)
        end)
      ids;
    List.iter
      (fun v ->
        let p = Hashtbl.find prod v and r = Hashtbl.find refn v in
        if not (same_node ~max_id p r) then
          fail "round %d node %d differs\n  prod: %s\n  ref:  %s" round v
            (render_prod ~max_id p) (render_ref r))
      ids
  done

let check_case ?fresh_scratch c =
  try run_case ?fresh_scratch c with Failure msg -> Alcotest.failf "%s\n%s" (print_case c) msg

(* Every corpus and pinned graph, lockstep and jittered, from clean and
   from arbitrary states. *)
let test_fixed_graphs () =
  List.iteri
    (fun i (graph, _, dmax) ->
      List.iter
        (fun (jitter, corrupt) ->
          check_case
            { graph; dmax; flags = 0; jitter; corrupt; cut = false; seed = 17 + i; rounds = 80 })
        [ (false, false); (true, false); (false, true); (true, true) ])
    (fixed ())

(* Every compute of a 100-leaf star indexes about a hundred ids, so
   from fresh scratch the id index grows in the middle of its fills,
   several times over. *)
let test_index_growth () =
  List.iter
    (fun (jitter, corrupt) ->
      check_case ~fresh_scratch:true
        { graph = "star 101"; dmax = 2; flags = 0; jitter; corrupt; cut = false; seed = 5;
          rounds = 30 })
    [ (false, false); (true, true) ]

let gen_case =
  QCheck.Gen.(
    let* kind = int_range 0 3 in
    let* n = int_range 5 40 in
    let* gseed = int_range 1 10_000 in
    let* fixed_i = int_range 0 (List.length (fixed ()) - 1) in
    let* dmax = int_range 1 3 in
    (* each toggle off with probability 1/8 *)
    let* offs = list_repeat 6 (int_range 0 7) in
    let* jitter = bool in
    let* corrupt = bool in
    let* cut = bool in
    let* seed = int_range 1 1_000_000 in
    let graph, dmax =
      match kind with
      | 0 | 1 -> (Printf.sprintf "rgg %d %d" n gseed, dmax)
      | 2 -> (Printf.sprintf "er %d %d" n gseed, dmax)
      | _ ->
          let name, _, d = List.nth (fixed ()) fixed_i in
          (name, d)
    in
    let flags = List.fold_left (fun acc o -> (acc lsl 1) lor if o = 0 then 1 else 0) 0 offs in
    return { graph; dmax; flags; jitter; corrupt; cut; seed; rounds = 60 })

let prop_reference =
  QCheck.Test.make ~count:80 ~long_factor:8
    ~name:"Grp_node ≡ cache-free reference, every round"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      run_case c;
      true)

(* [run], failing unless its reference computes reached both list
   writers that follow the individual checks: a joint-admission
   rejection, a contest cut with its refold, and a compute with both.
   Draws that never reach one compare nothing about it. *)
let reaching_writers run () =
  let c = R.coverage in
  let joint = c.joint_rejections and cuts = c.contest_cuts and both = c.both in
  run ();
  let joint = c.joint_rejections - joint and cuts = c.contest_cuts - cuts
  and both = c.both - both in
  if joint = 0 || cuts = 0 || both = 0 then
    Alcotest.failf
      "draws miss a list writer: %d computes with a joint rejection, %d with a contest \
       cut, %d with both"
      joint cuts both

let suite =
  List.map
    (fun (name, speed, run) -> (name, speed, reaching_writers run))
    (("corpus and pinned graphs ≡ reference", `Quick, test_fixed_graphs)
    :: List.map (QCheck_alcotest.to_alcotest ~speed_level:`Quick) [ prop_reference ])
  @ [ ("id index growth: 100-leaf star ≡ reference", `Quick, test_index_growth) ]
