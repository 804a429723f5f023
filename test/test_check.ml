(* Tests for the dgs_check scenario fuzzer: codec round-trips, determinism,
   oracle soundness (including the engine-event budget that pins the timer
   leak and the livelock periodicity detector), end-to-end shrinking, the
   fixed-bug regression corpus, and the CI fuzz smoke. *)

module Scenario = Dgs_check.Scenario
module Oracle = Dgs_check.Oracle
module Executor = Dgs_check.Executor
module Shrink = Dgs_check.Shrink
module Fuzz = Dgs_check.Fuzz
module Rng = Dgs_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let scenario =
  Alcotest.testable
    (fun ppf sc -> Format.pp_print_string ppf (Scenario.to_string sc))
    Scenario.equal

(* --- scenario codec --- *)

let test_roundtrip_generated () =
  for seed = 0 to 199 do
    let sc = Scenario.generate (Rng.create seed) ~max_actions:12 in
    match Scenario.of_string (Scenario.to_string sc) with
    | Some sc' -> Alcotest.check scenario "JSON round-trip" sc sc'
    | None ->
        Alcotest.failf "unparseable own output: %s" (Scenario.to_string sc)
  done

(* A non-finite number is no schedule: [pause inf] would replay forever,
   and a NaN rate slips through every range clamp. *)
let test_action_rejects_non_finite () =
  List.iter
    (fun line ->
      check ("rejected: " ^ line) true (Scenario.action_of_string line = None))
    [
      "pause inf";
      "pause nan";
      "loss nan";
      "loss -inf";
      "mob-start walk inf";
      "ramp-loss nan 3";
      "ramp-corruption infinity 2";
    ];
  check "a finite pause parses" true
    (Scenario.action_of_string "pause 1e3" = Some (Scenario.Pause 1000.0));
  check "a scenario with pause inf is rejected" true
    (Scenario.of_string
       {|{"seed":1,"dmax":1,"loss":0,"corruption":0,"topology":"line 3","actions":["pause inf"]}|}
    = None)

let test_roundtrip_strings () =
  List.iter
    (fun t ->
      check "topology round-trip" true
        (Scenario.topology_of_string (Scenario.topology_to_string t) = Some t))
    [
      Scenario.Line 4;
      Scenario.Ring 5;
      Scenario.Grid (2, 3);
      Scenario.Star 6;
      Scenario.Complete 3;
      Scenario.Btree 7;
      Scenario.Chain (2, 3);
      Scenario.Loop (3, 2);
      Scenario.Er (8, 0.35, 12345);
    ];
  List.iter
    (fun a ->
      check "action round-trip" true
        (Scenario.action_of_string (Scenario.action_to_string a) = Some a))
    [
      Scenario.Pause 2.5;
      Scenario.Pause 0.1234567890123456;
      Scenario.Deactivate 3;
      Scenario.Activate 3;
      Scenario.Reset 0;
      Scenario.Remove 7;
      Scenario.Add 9;
      Scenario.Set_loss 0.25;
      Scenario.Add_edge (1, 4);
      Scenario.Remove_edge (0, 2);
      Scenario.Mob_start (Scenario.Mob_waypoint, 0.25);
      Scenario.Mob_start (Scenario.Mob_walk, 0.5);
      Scenario.Mob_start (Scenario.Mob_highway, 0.1234567890123456);
      Scenario.Mob_start (Scenario.Mob_manhattan, 0.05);
      Scenario.Mob_step 4;
      Scenario.Ramp_loss (0.35, 5);
      Scenario.Ramp_corruption (0.02, 3);
    ]

let test_parse_rejects_junk () =
  List.iter
    (fun s -> check s true (Scenario.of_string s = None))
    [
      "";
      "{}";
      "not json";
      {|{"seed":1}|};
      {|{"seed":1,"dmax":2,"loss":0,"corruption":0,"topology":"mobius 4","actions":[]}|};
      {|{"seed":1,"dmax":2,"loss":0,"corruption":0,"topology":"ring 5","actions":["explode 3"]}|};
      {|{"seed":1,"dmax":2,"loss":0,"corruption":0,"topology":"ring 5","actions":[]} trailing|};
      (* Well-formed, but out of the range the executor can run. *)
      {|{"seed":1,"dmax":2,"loss":1.5,"corruption":0,"topology":"ring 4","actions":[]}|};
      {|{"seed":1,"dmax":2,"loss":0,"corruption":-0.1,"topology":"ring 4","actions":[]}|};
      {|{"seed":1,"dmax":0,"loss":0,"corruption":0,"topology":"ring 4","actions":[]}|};
      {|{"seed":1,"dmax":2,"loss":0,"corruption":0,"topology":"ring 2","actions":[]}|};
      {|{"seed":1,"dmax":2,"loss":0,"corruption":0,"topology":"loop 3 0","actions":[]}|};
    ]

let test_save_load () =
  let sc = Scenario.generate (Rng.create 77) ~max_actions:8 in
  let path = Filename.temp_file "dgs_check" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scenario.save path sc;
      match Scenario.load path with
      | Some sc' -> Alcotest.check scenario "save/load" sc sc'
      | None -> Alcotest.fail "load failed")

let test_generate_deterministic () =
  let a = Scenario.generate (Rng.create 5) ~max_actions:10 in
  let b = Scenario.generate (Rng.create 5) ~max_actions:10 in
  Alcotest.check scenario "same seed, same scenario" a b;
  let c = Scenario.generate (Rng.create 6) ~max_actions:10 in
  check "different seed, different scenario" false (Scenario.equal a c)

(* --- executor --- *)

let benign =
  {
    Scenario.seed = 123;
    dmax = 2;
    loss = 0.0;
    corruption = 0.0;
    topology = Scenario.Line 5;
    actions = [ Scenario.Pause 5.0 ];
  }

let test_executor_smoke () =
  let r = Executor.run benign in
  check "no violations" true (r.Oracle.violations = []);
  check "stabilized" true r.Oracle.stabilized;
  check_int "two groups on a 5-line with dmax 2" 2 r.Oracle.groups;
  check "fires within budget" true
    (r.Oracle.engine_fires <= r.Oracle.engine_fire_budget)

let test_executor_deterministic () =
  let a = Executor.run benign and b = Executor.run benign in
  check "identical reports" true
    (a.Oracle.engine_fires = b.Oracle.engine_fires
    && a.Oracle.computes = b.Oracle.computes
    && a.Oracle.deliveries = b.Oracle.deliveries
    && a.Oracle.quiesce_time = b.Oracle.quiesce_time
    && List.length a.Oracle.violations = List.length b.Oracle.violations)

(* The engine-event budget oracle is what pins the historical timer leak:
   deactivating most of the network and then running for a long time keeps
   the observed fire count far below what leaked timers would burn.  With
   the pre-fix behavior (retired timers rescheduling forever) the three
   deactivated nodes would add ~3 × 55 s × 3.5 ≈ 577 extra fires — more
   than the whole budget slack — so [run] would report an engine_budget
   violation. *)
let test_timer_leak_budget () =
  let sc =
    {
      Scenario.seed = 321;
      dmax = 2;
      loss = 0.0;
      corruption = 0.0;
      topology = Scenario.Complete 5;
      actions =
        [
          Scenario.Pause 2.0;
          Scenario.Deactivate 1;
          Scenario.Deactivate 2;
          Scenario.Deactivate 3;
          Scenario.Pause 55.0;
        ];
    }
  in
  let r = Executor.run sc in
  check "no violations post-fix" true (r.Oracle.violations = []);
  check "fires within budget" true
    (r.Oracle.engine_fires <= r.Oracle.engine_fire_budget);
  (* The budget is tight enough to convict a leak: the slack left is far
     below the extra fires the pre-fix behavior would have produced. *)
  check "budget slack below the leak signature" true
    (r.Oracle.engine_fire_budget - r.Oracle.engine_fires < 500)

(* --- shrinking, end to end --- *)

(* A seeded known-bad scenario under the strict-continuity oracle: a
   converged line group is split by an edge removal, so evictions are
   certain.  The schedule is padded with no-ops and redundancy; the
   shrinker must cut it down to a handful of actions that still evict. *)
let test_strict_eviction_shrinks () =
  let noisy =
    {
      Scenario.seed = 99;
      dmax = 3;
      loss = 0.0;
      corruption = 0.0;
      topology = Scenario.Line 4;
      actions =
        [
          Scenario.Activate 0 (* no-op: already active *);
          Scenario.Pause 30.0 (* converge *);
          Scenario.Reset 17 (* no-op: unknown id *);
          Scenario.Add_edge (0, 0) (* no-op: self-loop *);
          Scenario.Remove_edge (1, 2) (* splits the group *);
          Scenario.Pause 30.0 (* let the evictions land *);
          Scenario.Remove 42 (* no-op: unknown id *);
          Scenario.Pause 2.0;
          Scenario.Set_loss 0.0 (* no-op: already lossless *);
          Scenario.Deactivate 55 (* no-op: unknown id *);
          Scenario.Pause 1.0;
          Scenario.Add (-1) (* harmless spare id *);
        ];
    }
  in
  let r = Executor.run ~strict_continuity:true noisy in
  check "oracle catches the eviction" true
    (List.exists (fun v -> v.Oracle.check = "continuity") r.Oracle.violations);
  let still_fails sc =
    let r = Executor.run ~strict_continuity:true sc in
    List.exists (fun v -> v.Oracle.check = "continuity") r.Oracle.violations
  in
  let shrunk = Shrink.minimize ~still_fails noisy in
  check "shrunk still fails" true (still_fails shrunk);
  let n = List.length shrunk.Scenario.actions in
  check "shrinks to at most 10 actions" true (n <= 10);
  check "shrinks below the original" true
    (n < List.length noisy.Scenario.actions);
  check "the split survives shrinking" true
    (List.mem (Scenario.Remove_edge (1, 2)) shrunk.Scenario.actions)

(* --- mobility and ramp actions (tentpole) --- *)

let test_weighted_roundtrip () =
  let weights = Array.make (List.length Scenario.families) 1.0 in
  for seed = 0 to 199 do
    let sc =
      Scenario.generate_weighted (Rng.create seed) ~max_actions:12 ~weights
    in
    match Scenario.of_string (Scenario.to_string sc) with
    | Some sc' -> Alcotest.check scenario "weighted JSON round-trip" sc sc'
    | None ->
        Alcotest.failf "unparseable own output: %s" (Scenario.to_string sc)
  done

let test_weighted_deterministic_and_validated () =
  let n = List.length Scenario.families in
  let weights = Array.make n 1.0 in
  let a = Scenario.generate_weighted (Rng.create 9) ~max_actions:10 ~weights in
  let b = Scenario.generate_weighted (Rng.create 9) ~max_actions:10 ~weights in
  Alcotest.check scenario "same seed and weights, same scenario" a b;
  List.iter
    (fun w ->
      check "malformed weights rejected" true
        (match
           Scenario.generate_weighted (Rng.create 1) ~max_actions:5 ~weights:w
         with
        | (_ : Scenario.t) -> false
        | exception Invalid_argument _ -> true))
    [ [||]; Array.make (n - 1) 1.0; Array.make n 0.0;
      (let w = Array.make n 1.0 in w.(3) <- -.1.0; w);
      (let w = Array.make n 1.0 in w.(0) <- Float.nan; w) ]

(* The legacy generator's stream is pinned (the seed-reported CI smoke
   depends on it), so it must never emit the new action families — those
   belong to [generate_weighted] only. *)
let test_legacy_generator_never_emits_mobility () =
  let is_new = function
    | Scenario.Mob_start _ | Scenario.Mob_step _ | Scenario.Ramp_loss _
    | Scenario.Ramp_corruption _ ->
        true
    | _ -> false
  in
  for seed = 0 to 299 do
    let sc = Scenario.generate (Rng.create seed) ~max_actions:12 in
    check "legacy stream has no mobility/ramp actions" false
      (List.exists is_new sc.Scenario.actions)
  done

(* Steering the sampler entirely toward mobility must still produce
   replayable schedules: a [Mob_step] draw before any model is installed
   materializes as the [Mob_start]. *)
let test_weighted_mob_step_never_precedes_start () =
  let n = List.length Scenario.families in
  let weights = Array.make n 1e-6 in
  let idx f =
    let rec go i = function
      | [] -> assert false
      | x :: tl -> if x = f then i else go (i + 1) tl
    in
    go 0 Scenario.families
  in
  weights.(idx Scenario.F_mob_step) <- 10.0;
  for seed = 0 to 199 do
    let sc = Scenario.generate_weighted (Rng.create seed) ~max_actions:8 ~weights in
    let started = ref false in
    List.iter
      (fun a ->
        match a with
        | Scenario.Mob_start _ -> started := true
        | Scenario.Mob_step _ ->
            check "mob-step only after mob-start" true !started
        | _ -> ())
      sc.Scenario.actions
  done

(* Executor semantics of the new actions: a mobility schedule replays
   deterministically, and an orphan [Mob_step] (no installed model) is a
   no-op rather than a crash or a stream perturbation. *)
let mobile_scenario =
  {
    Scenario.seed = 4242;
    dmax = 2;
    loss = 0.0;
    corruption = 0.0;
    topology = Scenario.Grid (2, 3);
    actions =
      [
        Scenario.Pause 25.0;
        Scenario.Mob_start (Scenario.Mob_waypoint, 0.4);
        Scenario.Mob_step 6;
        Scenario.Ramp_loss (0.3, 3);
        Scenario.Ramp_corruption (0.02, 2);
        Scenario.Pause 5.0;
        Scenario.Ramp_loss (0.0, 2);
      ];
  }

let test_executor_mobility_deterministic () =
  let a = Executor.run mobile_scenario and b = Executor.run mobile_scenario in
  check "identical mobility replays" true
    (a.Oracle.engine_fires = b.Oracle.engine_fires
    && a.Oracle.computes = b.Oracle.computes
    && a.Oracle.deliveries = b.Oracle.deliveries
    && a.Oracle.evictions = b.Oracle.evictions
    && a.Oracle.quiesce_time = b.Oracle.quiesce_time);
  check "mobility run stabilizes" true a.Oracle.stabilized

let test_executor_orphan_mob_step () =
  let base = { benign with Scenario.actions = [ Scenario.Pause 5.0 ] } in
  let orphan =
    { benign with Scenario.actions = [ Scenario.Mob_step 4; Scenario.Pause 5.0 ] }
  in
  let a = Executor.run base and b = Executor.run orphan in
  check "orphan mob-step is a no-op" true
    (a.Oracle.engine_fires = b.Oracle.engine_fires
    && a.Oracle.computes = b.Oracle.computes
    && a.Oracle.quiesce_time = b.Oracle.quiesce_time)

(* Shrinker coverage for the new families, table-driven: each seeded
   failing scenario carries mobility/ramp actions plus no-op padding; the
   minimized script must reproduce the original failure fingerprint (same
   oracle check) and keep at least one action of the triggering family. *)
let shrink_fingerprint_cases =
  (* The padding must be inert under strict continuity (no resets or
     deactivations, which evict on their own) so the only way the seeded
     scenario can fail is through its mobility/ramp core — otherwise the
     shrinker could legitimately drop the very action under test. *)
  let pad actions =
    (Scenario.Pause 2.0 :: Scenario.Add_edge (0, 1) :: actions)
    @ [ Scenario.Add_edge (1, 2); Scenario.Pause 1.0 ]
  in
  [
    ( "mob-step",
      (function Scenario.Mob_step _ -> true | _ -> false),
      {
        Scenario.seed = 7;
        dmax = 2;
        loss = 0.0;
        corruption = 0.0;
        topology = Scenario.Line 5;
        actions =
          pad
            [
              Scenario.Pause 25.0;
              Scenario.Mob_start (Scenario.Mob_walk, 1.5);
              Scenario.Mob_step 10;
            ];
      } );
    ( "ramp-loss",
      (function Scenario.Ramp_loss _ -> true | _ -> false),
      {
        Scenario.seed = 7;
        dmax = 2;
        loss = 0.0;
        corruption = 0.0;
        topology = Scenario.Line 5;
        actions =
          pad
            [
              Scenario.Pause 25.0;
              Scenario.Ramp_loss (0.95, 4);
              Scenario.Pause 30.0;
            ];
      } );
    ( "ramp-corruption",
      (function Scenario.Ramp_corruption _ -> true | _ -> false),
      {
        Scenario.seed = 31;
        dmax = 2;
        loss = 0.0;
        corruption = 0.0;
        topology = Scenario.Star 6;
        actions =
          pad
            [
              Scenario.Pause 25.0;
              Scenario.Ramp_corruption (0.9, 4);
              Scenario.Pause 30.0;
            ];
      } );
  ]

let test_shrink_keeps_mobility_fingerprint () =
  List.iter
    (fun (name, keeps, sc) ->
      let r = Executor.run ~strict_continuity:true sc in
      let fingerprint =
        match r.Oracle.violations with
        | v :: _ -> v.Oracle.check
        | [] -> Alcotest.failf "%s: seeded scenario did not fail" name
      in
      let still_fails sc' =
        let r = Executor.run ~strict_continuity:true sc' in
        List.exists (fun v -> v.Oracle.check = fingerprint) r.Oracle.violations
      in
      let shrunk = Shrink.minimize ~still_fails sc in
      check (name ^ ": shrunk reproduces the fingerprint") true
        (still_fails shrunk);
      check (name ^ ": shrunk below the original") true
        (List.length shrunk.Scenario.actions < List.length sc.Scenario.actions);
      check (name ^ ": the triggering family survives") true
        (List.exists keeps shrunk.Scenario.actions))
    shrink_fingerprint_cases

(* --- fixed-bug regression corpus (test/regressions/) --- *)

(* These scripts were found by the fuzzer, pinned protocol-core bugs while
   they were open, and now guard the fixes: every script must stabilize
   with zero violations under the full oracle.  New fuzzer finds join the
   corpus once fixed; the scan below replays every file it sees. *)

let regressions_dir = "regressions"

let load_repro name =
  match Scenario.load (Filename.concat regressions_dir name) with
  | Some sc -> sc
  | None -> Alcotest.failf "cannot load test/regressions/%s" name

let assert_clean name (r : Oracle.report) =
  check (name ^ ": stabilizes") true r.Oracle.stabilized;
  (match r.Oracle.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: %d violation(s), first %s" name
        (List.length r.Oracle.violations)
        (Format.asprintf "%a" Oracle.pp_violation v));
  check (name ^ ": no livelock") true (r.Oracle.livelock_period = None)

let test_regression_one_sided_membership () =
  (* complete4 under a remove-edge used to stabilize with node 0 keeping a
     one-sided view of the split pair (a stable ΠA violation); the
     admission gate's continuous re-validation now dissolves it. *)
  let r = Executor.run (load_repro "complete4-one-sided-membership.json") in
  assert_clean "complete4" r;
  check "agreement restored" true
    (not (List.exists (fun v -> v.Oracle.check = "agreement") r.Oracle.violations))

let test_regression_eviction_livelock () =
  (* ring7 after a deactivate/reactivate used to re-pair forever with
     period 4·tau_c; the contest-cooldown oldness hold breaks the
     rotation.  Several remedies now independently rescue this topology
     (the admission gate, and the hardened joint-admission foreignness
     test), so re-triggering the rotation takes stripping cooldown, gate
     and quarantine together.  The stripped replay proves the protocol
     machinery is what fixes it AND exercises the oracle's periodicity
     detector on a true positive: the run must be flagged as a periodic
     livelock, not mere slowness. *)
  let r = Executor.run (load_repro "ring7-eviction-livelock.json") in
  assert_clean "ring7" r;
  let r' =
    Executor.run
      ~protocol:(fun c ->
        {
          c with
          Dgs_core.Config.contest_cooldown_enabled = false;
          admission_gate_enabled = false;
          quarantine_enabled = false;
        })
      (load_repro "ring7-eviction-livelock.json")
  in
  check "without remedies: never stabilizes" false r'.Oracle.stabilized;
  check "without remedies: livelock detected" true (r'.Oracle.livelock_period <> None);
  check "without remedies: livelock violation reported" true
    (List.exists (fun v -> v.Oracle.check = "livelock") r'.Oracle.violations)

let test_regression_corpus () =
  (* Replay everything in the corpus, so dropping a file in is enough to
     pin a fix. *)
  let files =
    Sys.readdir regressions_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  check "corpus is non-empty" true (List.length files >= 2);
  List.iter (fun f -> assert_clean f (Executor.run (load_repro f))) files

(* --- known livelocks (test/regressions/known-livelocks/) --- *)

(* True-positive pins, the counterpart of the clean corpus above: these
   scripts were found by the coverage-guided fuzzer and livelock on a
   fully clean channel (zero loss, zero corruption, empty schedule), so
   they document open protocol-core findings, not fixed bugs.  Small
   grids at small Dmax can rotate forever between symmetric pairings —
   nodes joint-admit both neighbours, hit the too-far conflict, evict
   both, and restart — at timer phases the contest cooldown does not
   break.  Each replay must be flagged as a periodic livelock; if one
   stabilizes, the protocol got better: move the file into the clean
   corpus. *)

let known_livelocks_dir = Filename.concat regressions_dir "known-livelocks"

let test_known_livelocks () =
  let files =
    Sys.readdir known_livelocks_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  check "known-livelock set is non-empty" true (List.length files >= 2);
  List.iter
    (fun f ->
      let sc =
        match Scenario.load (Filename.concat known_livelocks_dir f) with
        | Some sc -> sc
        | None -> Alcotest.failf "cannot load known-livelocks/%s" f
      in
      let r = Executor.run sc in
      check (f ^ ": does not stabilize") false r.Oracle.stabilized;
      check (f ^ ": periodic livelock detected") true
        (r.Oracle.livelock_period <> None);
      check (f ^ ": livelock violation reported") true
        (List.exists (fun v -> v.Oracle.check = "livelock") r.Oracle.violations))
    files

(* --- coverage signal and weight evolution --- *)

module Coverage = Dgs_check.Coverage

let nfam = List.length Scenario.families

let gen_signature =
  QCheck.Gen.(
    let point =
      map2
        (fun f tag -> f ^ ":" ^ tag)
        (oneofl (Coverage.livelock_family :: Coverage.rare_families))
        (oneofl [ "ge1"; "ge8"; "ge64" ])
    in
    map3
      (fun pts flags hits ->
        {
          Coverage.points = List.sort_uniq String.compare pts;
          rare_hits = hits;
          used =
            List.filter_map
              (fun (f, keep) -> if keep then Some f else None)
              (List.combine Scenario.families flags);
        })
      (list_size (int_bound 6) point)
      (list_repeat nfam bool)
      (int_bound 100))

let arb_batches =
  QCheck.make
    ~print:(fun bs ->
      Printf.sprintf "%d batches" (List.length bs))
    QCheck.Gen.(list_size (int_bound 6) (list_size (int_bound 5) gen_signature))

let weights_after batches =
  let t = Coverage.create () in
  List.iter (Coverage.observe t) batches;
  Coverage.weights t

let qcheck_weights_normalized =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"evolved weights stay positive and mean-1 normalized"
       arb_batches
       (fun batches ->
         let w = weights_after batches in
         Array.for_all (fun x -> x > 0.0) w
         && Float.abs (Array.fold_left ( +. ) 0.0 w -. float_of_int nfam)
            < 1e-6))

let qcheck_weights_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"identical signature streams evolve identical weights"
       arb_batches
       (fun batches -> weights_after batches = weights_after batches))

let qcheck_all_seen_noop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"an all-seen signature stream leaves the weights unchanged"
       arb_batches
       (fun batches ->
         let t = Coverage.create () in
         List.iter (Coverage.observe t) batches;
         let w1 = Coverage.weights t in
         (* Every point is now in the seen-set: replaying the very same
            stream must not move the weights at all. *)
         List.iter (Coverage.observe t) batches;
         w1 = Coverage.weights t))

(* Non-vacuity pin for the property above: a genuinely novel signature
   whose scenario used some family MUST move the weights, so the all-seen
   no-op is not satisfied trivially. *)
let test_evolver_novelty_boosts () =
  let t = Coverage.create () in
  let s =
    {
      Coverage.points = [ "grp_gate_conviction_total:ge1" ];
      rare_hits = 1;
      used = [ Scenario.F_pause; Scenario.F_mob_start ];
    }
  in
  Coverage.observe t [ s ];
  check "novelty moved the weights" false
    (Coverage.weights t = Array.make nfam 1.0);
  let r = Coverage.report t in
  check "one new point" true (r.Coverage.new_points = 1);
  check "one new-coverage run" true (r.Coverage.new_coverage_runs = 1);
  (* ~evolve:false collects the statistics but pins the weights. *)
  let u = Coverage.create () in
  Coverage.observe ~evolve:false u [ s ];
  check "uniform leg never moves the weights" true
    (Coverage.weights u = Array.make nfam 1.0);
  check "uniform leg still counts coverage" true
    ((Coverage.report u).Coverage.new_points = 1)

let test_signature_of_run () =
  (* Signatures are pure functions of the run: well-formed points drawn
     from the rare vocabulary, a used-family list reflecting the
     schedule, and byte-identical on re-execution. *)
  let signature () =
    let reg = Dgs_metrics.Registry.create () in
    let r = Executor.run ~metrics:reg benign in
    Coverage.of_run benign r (Dgs_metrics.Registry.snapshot reg)
  in
  let s = signature () in
  let vocabulary = Coverage.livelock_family :: Coverage.rare_families in
  List.iter
    (fun p ->
      match String.index_opt p ':' with
      | None -> Alcotest.failf "malformed coverage point %S" p
      | Some i ->
          check ("family of " ^ p ^ " is in the vocabulary") true
            (List.mem (String.sub p 0 i) vocabulary))
    s.Coverage.points;
  check "used families from the schedule" true
    (s.Coverage.used = [ Scenario.F_pause ]);
  check "signature is deterministic" true (s = signature ())

(* --- campaigns --- *)

let summary_fingerprint (s : Fuzz.summary) =
  ( s.Fuzz.stabilized_runs,
    s.Fuzz.total_evictions,
    s.Fuzz.maximality_gaps,
    List.map
      (fun f ->
        (f.Fuzz.run, f.Fuzz.first_violation.Oracle.check,
         Scenario.to_string f.Fuzz.shrunk))
      s.Fuzz.failures )

let test_campaign_deterministic () =
  let run () = Fuzz.campaign ~seed:17 ~runs:25 ~max_actions:8 () in
  check "identical campaigns" true
    (summary_fingerprint (run ()) = summary_fingerprint (run ()))

(* The ISSUE's determinism contract for guided campaigns: generation
   happens in the caller in batches, so the signature stream — and with
   it the evolved weights, the coverage report and every failure — is a
   pure function of the master seed, byte-identical for every [jobs]. *)
let test_guided_campaign_jobs_deterministic () =
  let run jobs =
    Fuzz.campaign ~seed:42 ~runs:60 ~max_actions:8 ~jobs ~coverage:true ()
  in
  let base = run 1 in
  let base_cov = Option.get base.Fuzz.coverage in
  check "guided campaign produced coverage points" true
    (base_cov.Coverage.points <> []);
  List.iter
    (fun jobs ->
      let s = run jobs in
      let cov = Option.get s.Fuzz.coverage in
      check (Printf.sprintf "jobs=%d: summary fingerprint" jobs) true
        (summary_fingerprint s = summary_fingerprint base);
      check (Printf.sprintf "jobs=%d: coverage points" jobs) true
        (cov.Coverage.points = base_cov.Coverage.points);
      check (Printf.sprintf "jobs=%d: rare hits" jobs) true
        (cov.Coverage.rare_hits = base_cov.Coverage.rare_hits);
      check (Printf.sprintf "jobs=%d: evolved-weight trace" jobs) true
        (cov.Coverage.weight_trace = base_cov.Coverage.weight_trace))
    [ 2; 4 ]

(* CI fuzz smoke: 500 scenarios on fixed seeds must report nothing.  The
   two historical fuzzer finds are fixed (see the regression corpus
   above), so the seeds no longer dodge anything — 1, 7 and 42 are the
   seeds the ISSUE's stabilization grid uses.  This is a regression net
   for the protocol AND the fuzzer, not a hunt.  On failure every shrunk
   script is printed, ready for `grp_sim fuzz --replay`. *)
let test_fuzz_smoke () =
  List.iter
    (fun (seed, runs) ->
      let s = Fuzz.campaign ~seed ~runs ~max_actions:10 () in
      check_int
        (Printf.sprintf "seed %d: all runs stabilize" seed)
        s.Fuzz.runs s.Fuzz.stabilized_runs;
      match s.Fuzz.failures with
      | [] -> ()
      | fs ->
          List.iter
            (fun f ->
              Printf.printf "repro (seed %d, run %d, %s): %s\n" seed f.Fuzz.run
                f.Fuzz.first_violation.Oracle.check
                (Scenario.to_string f.Fuzz.shrunk))
            fs;
          Alcotest.failf "fuzz smoke: %d failing run(s) under master seed %d"
            (List.length fs) seed)
    [ (1, 200); (7, 150); (42, 150) ]

let suite =
  [
    ("scenario JSON round-trip", `Quick, test_roundtrip_generated);
    ("topology/action string round-trip", `Quick, test_roundtrip_strings);
    ("action parser rejects non-finite numbers", `Quick, test_action_rejects_non_finite);
    ("parser rejects junk", `Quick, test_parse_rejects_junk);
    ("scenario save/load", `Quick, test_save_load);
    ("generator is deterministic", `Quick, test_generate_deterministic);
    ("executor smoke", `Quick, test_executor_smoke);
    ("executor is deterministic", `Quick, test_executor_deterministic);
    ("engine budget pins the timer leak", `Quick, test_timer_leak_budget);
    ("strict eviction shrinks end-to-end", `Quick, test_strict_eviction_shrinks);
    ("regression: one-sided membership fixed", `Quick, test_regression_one_sided_membership);
    ("regression: eviction livelock fixed", `Quick, test_regression_eviction_livelock);
    ("regression corpus replays clean", `Quick, test_regression_corpus);
    ("weighted scenario JSON round-trip", `Quick, test_weighted_roundtrip);
    ( "weighted generator is deterministic and validated",
      `Quick,
      test_weighted_deterministic_and_validated );
    ( "legacy generator never emits mobility",
      `Quick,
      test_legacy_generator_never_emits_mobility );
    ( "weighted generator orders Mob_step after Mob_start",
      `Quick,
      test_weighted_mob_step_never_precedes_start );
    ( "executor is deterministic under mobility",
      `Quick,
      test_executor_mobility_deterministic );
    ("orphan Mob_step is a no-op", `Quick, test_executor_orphan_mob_step);
    ( "shrinking preserves mobility failure fingerprints",
      `Quick,
      test_shrink_keeps_mobility_fingerprint );
    ("known livelocks stay flagged", `Quick, test_known_livelocks);
    qcheck_weights_normalized;
    qcheck_weights_deterministic;
    qcheck_all_seen_noop;
    ("novel coverage boosts the weights", `Quick, test_evolver_novelty_boosts);
    ("signature of a benign run is empty", `Quick, test_signature_of_run);
    ("campaign is deterministic", `Quick, test_campaign_deterministic);
    ( "guided campaign is jobs-deterministic",
      `Quick,
      test_guided_campaign_jobs_deterministic );
    ("fuzz smoke (500 scenarios)", `Quick, test_fuzz_smoke);
  ]
