(* grp_sim — command-line front-end to the GRP reproduction.

   Subcommands:
     converge    run the protocol on a static topology until quiescent and
                 report the groups and the specification predicates
     mobility    run a mobility scenario and report the continuity metrics
     vanet       large-scale highway/city scenario (10k+ nodes) with the
                 spatial-grid graph rebuild and the incremental oracle
     experiment  run one of the experiment suites (grp_sim list names them)
     fuzz        random churn/rewiring/loss scenarios against the invariant
                 oracles, with shrinking and replayable repro files
     report      post-mortem analysis of a recorded trace / metrics file
     explain     root-cause queries over a trace's message-lineage DAG
     list        list available experiments and topologies

   Observability: --trace FILE records a JSONL event trace, --metrics FILE
   a metrics-registry snapshot (JSON, or Prometheus text for .prom paths);
   both are documented in docs/OBSERVABILITY.md and consumed offline by
   `grp_sim report`. *)

module Gen = Dgs_graph.Gen
module Rounds = Dgs_sim.Rounds
module Cfg = Dgs_spec.Configuration
module P = Dgs_spec.Predicates
module Monitor = Dgs_spec.Monitor
module Membership = Dgs_spec.Membership
module Mobility = Dgs_mobility.Mobility
module Harness = Dgs_workload.Harness
module Vanet = Dgs_workload.Vanet
module Experiments = Dgs_workload.Experiments
module Trace = Dgs_trace.Trace
module Postmortem = Dgs_trace.Postmortem
module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names
open Dgs_core
open Cmdliner

let topologies =
  [
    ("line", fun n _ -> Gen.line n);
    ("ring", fun n _ -> Gen.ring n);
    ("grid", fun n _ -> let side = max 2 (int_of_float (sqrt (float_of_int n))) in Gen.grid side side);
    ("star", fun n _ -> Gen.star n);
    ("complete", fun n _ -> Gen.complete n);
    ("btree", fun n _ -> Gen.binary_tree n);
    ("rgg", fun n seed -> Harness.rgg ~seed ~n ());
    ("cliquechain", fun n _ -> Gen.group_chain ~groups:(max 2 (n / 3)) ~group_size:3);
    ("cliqueloop", fun n _ -> Gen.group_loop ~groups:(max 3 (n / 3)) ~group_size:3);
  ]

let topology_conv =
  let parse s =
    match List.assoc_opt s topologies with
    | Some f -> Ok (s, f)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown topology %S (try: %s)" s
               (String.concat ", " (List.map fst topologies))))
  in
  Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)

(* Reject an out-of-domain number at parse time, as a usage error naming
   the option, rather than as an uncaught exception from deep inside the
   run. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when ok x -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let checked_float = checked Arg.float
let at_least k =
  checked Arg.int ~expected:(Printf.sprintf "an integer >= %d" k) (fun n -> n >= k)

let dmax_arg =
  Arg.(
    value & opt (at_least 1) 3
    & info [ "d"; "dmax" ] ~docv:"DMAX" ~doc:"Group diameter bound, >= 1.")

let nodes_arg =
  Arg.(value & opt (at_least 0) 30 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let rounds_arg default =
  Arg.(
    value & opt (at_least 0) default
    & info [ "rounds" ] ~docv:"ROUNDS" ~doc:"Measured rounds, >= 0.")

(* Highway.create would reject a negative speed only once the run has
   started, as an uncaught exception, and lets NaN through. *)
let speed_arg ~default ~doc =
  let finite_nonneg =
    checked_float ~expected:"a finite number >= 0" (fun v -> Float.is_finite v && v >= 0.0)
  in
  Arg.(
    value & opt finite_nonneg default
    & info [ "speed" ] ~docv:"SPEED" ~doc:(doc ^ ", finite and >= 0."))

let seed_arg =
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-node protocol state.")

let jobs_arg ~doc =
  Arg.(value & opt (at_least 0) 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* The resolved value only affects wall clock — campaign and experiment
   output is byte-identical for every jobs value (see Dgs_parallel.Pool). *)
let independent_jobs_arg =
  jobs_arg
    ~doc:
      "Number of worker domains for independent runs, >= 0 (0 = one per \
       core).  Results are identical for every value; only wall clock \
       changes."

let resolve_jobs jobs = if jobs = 0 then Dgs_parallel.Pool.default_jobs () else jobs

(* [requires ~opt ~partner a p] is [a]; giving [--opt] without [--partner],
   which it only qualifies, is a usage error naming both. *)
let requires ~opt ~partner a p =
  let check a p =
    match (a, p) with
    | Some _, None -> `Error (true, Printf.sprintf "option '--%s' requires '--%s'" opt partner)
    | _ -> `Ok a
  in
  Term.(ret (const check $ a $ p))

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL event trace of the run to $(docv) (see \
           docs/OBSERVABILITY.md for the schema).")

(* Validated at parse time so a typo'd kind is a usage error naming the
   vocabulary, not an uncaught exception mid-run. *)
let trace_filter_conv =
  let parse s =
    let names = List.map String.trim (String.split_on_char ',' s) in
    match Trace.filter_kinds names Trace.null with
    | (_ : Trace.t) -> Ok names
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf names -> Format.pp_print_string ppf (String.concat "," names))

let trace_filter_arg =
  requires ~opt:"trace-filter" ~partner:"trace"
    Arg.(
      value
      & opt (some trace_filter_conv) None
      & info [ "trace-filter" ] ~docv:"KINDS"
          ~doc:
            "With --trace, comma-separated event kinds to keep in the trace file \
             (e.g. 'view_changed,quarantine_admit'); case-insensitive.  Default: \
             all kinds.")
    trace_arg

let trace_max_mb_arg =
  requires ~opt:"trace-max-mb" ~partner:"trace"
    Arg.(
      value
      & opt (some (at_least 1)) None
      & info [ "trace-max-mb" ] ~docv:"MB"
          ~doc:
            "With --trace, rotate the file when it would exceed $(docv) \
             megabytes ($(docv) >= 1), keeping the last 3 files (FILE, FILE.1, FILE.2 — \
             newest events always in FILE).  Default: unbounded.")
    trace_arg

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write metrics-registry snapshot(s) to $(docv): Prometheus text \
           exposition when $(docv) ends in .prom, deterministic JSON \
           otherwise (one object per line when several snapshots are \
           recorded).  See docs/OBSERVABILITY.md for the schema.")

let metrics_interval_arg =
  requires ~opt:"metrics-interval" ~partner:"metrics"
    Arg.(
      value
      & opt (some (at_least 1)) None
      & info [ "metrics-interval" ] ~docv:"N"
          ~doc:
            "With --metrics, also snapshot the registry every $(docv) rounds, >= 1; \
             the file becomes a JSONL of interval snapshots followed by the \
             final one.")
    metrics_arg

(* The registry the --metrics option asks for: the null registry keeps the
   whole run on the one-load-and-branch disabled path when no file was
   requested. *)
let metrics_registry metrics_file =
  if metrics_file = None then Registry.null else Registry.create ()

(* End the run with "grp_sim: MESSAGE" on stderr and exit status 2. *)
let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("grp_sim: " ^ msg); exit 2) fmt

(* Every file the CLI reads is read inside [reading]: one that cannot be
   read ends the run with "grp_sim: REASON". *)
let reading read = try read () with Sys_error msg -> fail "%s" msg

(* Every file or directory the CLI writes is written inside [writing], with
   one error policy: [dir], when given, is created first if missing, and a
   failed write ends the run with "grp_sim: cannot write WHAT: REASON". *)
let writing ~what ?dir write =
  try
    Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) dir;
    write ()
  with Sys_error msg -> fail "cannot write %s: %s" what msg

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

let write_metrics path snaps =
  let render s =
    if Filename.check_suffix path ".prom" then Registry.to_prometheus s
    else Registry.to_json s ^ "\n"
  in
  writing ~what:"metrics" (fun () ->
      write_file path (String.concat "" (List.map render snaps));
      Printf.printf "metrics written to %s\n" path)

(* [files] are (name, content) pairs, written into [dir]; returns the
   announcement of the written paths, for the caller to print once its own
   output is out. *)
let export_csv dir files =
  let paths = List.map (fun (name, _) -> Filename.concat dir name) files in
  writing ~what:"CSV" ~dir (fun () ->
      List.iter2 (fun path (_, content) -> write_file path content) paths files);
  fun () -> List.iter (Printf.printf "wrote %s\n") paths

(* Run [k] with the sink the --trace/--trace-filter/--trace-max-mb options
   ask for, teeing an unfiltered per-node tally of the view changes out of
   which the view-stabilization line is computed. *)
let with_trace_sink ?trace_max_mb trace_file trace_filter k =
  let tally = Postmortem.view_tally () in
  let apply_filter sink =
    match trace_filter with
    | None -> sink
    | Some kinds -> Trace.filter_kinds kinds sink
  in
  match trace_file with
  | None -> k Trace.null tally
  | Some path ->
      let with_file f =
        match trace_max_mb with
        | Some mb -> Trace.Rotating.with_file path ~max_bytes:(mb * 1024 * 1024) ~keep:3 f
        | None -> Trace.Jsonl.with_file path f
      in
      writing ~what:"trace" (fun () ->
          with_file (fun file_sink ->
              let r =
                k (Trace.tee (apply_filter file_sink) (Postmortem.view_tally_sink tally)) tally
              in
              Printf.printf "trace written to %s\n" path;
              r))

let report_view_stabilization tally =
  match Postmortem.view_stabilization tally with
  | [] -> ()
  | per_node ->
      let last =
        List.fold_left (fun acc (_, time, _, _) -> max acc time) 0.0 per_node
      in
      let changes = List.fold_left (fun acc (_, _, _, n) -> acc + n) 0 per_node in
      Printf.printf
        "view stabilization: %d nodes changed views %d times; last change at \
         round %g\n"
        (List.length per_node) changes last

let report_config c dmax =
  let groups = Cfg.groups c in
  Printf.printf "groups (%d):\n" (List.length groups);
  List.iter
    (fun g -> Format.printf "  %a@." Node_id.pp_set g)
    groups;
  List.iter
    (fun (name, check) ->
      match check c with
      | None -> Printf.printf "%-12s ok\n" name
      | Some v -> Format.printf "%-12s %a@." name P.pp_violation v)
    [
      ("agreement", P.agreement);
      ("safety", P.safety ~dmax);
      ("maximality", P.maximality ~dmax);
    ]

let converge_term =
  let run (tname, tf) n dmax seed verbose trace_file trace_filter trace_max_mb
      metrics_file metrics_interval =
    let g = try tf n seed with Invalid_argument msg -> fail "%s" msg in
    let config = Config.make ~dmax () in
    with_trace_sink ?trace_max_mb trace_file trace_filter (fun sink tally ->
        let reg = metrics_registry metrics_file in
        let t = Rounds.create ~config ~trace:sink ~metrics:reg g in
        let rng = Dgs_util.Rng.create seed in
        let monitor = Monitor.create ~dmax in
        let interval_snaps = ref [] in
        let on_round r =
          (* The per-round predicate sweep behind the convergence timeline
             is only paid for when a trace was asked for. *)
          if trace_file <> None then
            Monitor.observe_at monitor ~time:(float_of_int r) (Harness.snapshot t g);
          Option.iter
            (fun k ->
              if r mod k = 0 then
                interval_snaps := Registry.snapshot ~jobs:1 reg :: !interval_snaps)
            metrics_interval
        in
        let rounds = Rounds.run_until_stable ~jitter:0.1 ~rng ~on_round t in
        Printf.printf "topology %s, %d nodes, Dmax=%d\n" tname
          (Dgs_graph.Graph.node_count g) dmax;
        (match rounds with
        | Some r ->
            Printf.printf "stabilized after %d rounds (%d messages)\n" r
              (Rounds.messages_sent t)
        | None -> Printf.printf "did not stabilize within the round budget\n");
        if verbose then
          List.iter
            (fun v ->
              let nd = Rounds.node t v in
              Format.printf "  %a@." Grp_node.pp nd)
            (Rounds.node_ids t);
        report_config (Harness.snapshot t g) dmax;
        if trace_file <> None then begin
          Format.printf "%a@." Monitor.pp_timeline (Monitor.timeline monitor);
          report_view_stabilization tally
        end;
        Option.iter
          (fun path ->
            write_metrics path (List.rev !interval_snaps @ [ Registry.snapshot ~jobs:1 reg ]))
          metrics_file)
  in
  let topology =
    Arg.(
      value
      & opt topology_conv (List.nth topologies 6 |> fun (s, f) -> (s, f))
      & info [ "t"; "topology" ] ~docv:"TOPOLOGY" ~doc:"Topology generator.")
  in
  Term.(
    const run $ topology $ nodes_arg $ dmax_arg $ seed_arg $ verbose_arg $ trace_arg
    $ trace_filter_arg $ trace_max_mb_arg $ metrics_arg $ metrics_interval_arg)

let converge_cmd =
  Cmd.v (Cmd.info "converge" ~doc:"Run GRP on a static topology until quiescent.")
    converge_term

(* Each model's parameters, as a function of the --speed option. *)
let mobility_specs =
  [
    ( "highway",
      fun speed ->
        Mobility.Highway
          {
            lanes = 3;
            lane_gap = 0.3;
            length = 25.0;
            vmin = speed /. 2.0;
            vmax = (speed *. 1.5) +. 1e-9;
            bidirectional = true;
          } );
    ( "waypoint",
      fun speed ->
        Mobility.Waypoint
          {
            xmax = 8.0;
            ymax = 8.0;
            vmin = (speed /. 2.0) +. 1e-9;
            vmax = (speed *. 1.5) +. 2e-9;
            pause = 2.0;
          } );
    ("walk", fun speed -> Mobility.Walk { xmax = 8.0; ymax = 8.0; speed; turn_sigma = 0.4 });
    ( "manhattan",
      fun speed -> Mobility.Manhattan { blocks_x = 4; blocks_y = 4; block = 2.0; speed } );
  ]

let mobility_cmd =
  let run model n dmax seed speed rounds trace_file trace_filter trace_max_mb
      metrics_file =
    let spec = List.assoc model mobility_specs speed in
    let config = Config.make ~dmax () in
    let r =
      with_trace_sink ?trace_max_mb trace_file trace_filter (fun sink tally ->
          let reg = metrics_registry metrics_file in
          let r =
            Harness.run_mobility ~trace:sink ~metrics:reg ~config ~seed ~spec ~n
              ~rounds ()
          in
          report_view_stabilization tally;
          Option.iter
            (fun path -> write_metrics path [ Registry.snapshot ~jobs:1 reg ])
            metrics_file;
          r)
    in
    Printf.printf "mobility %s, %d nodes, Dmax=%d, speed %.3f, %d rounds\n" model n
      dmax speed rounds;
    Printf.printf "  \xCE\xA0T-preserving steps: %d, violating: %d\n"
      r.Harness.pt_preserving r.Harness.pt_violating;
    Printf.printf "  evictions under \xCE\xA0T: %d (theorem: must be 0)\n"
      r.Harness.evictions_under_pt;
    let churn = r.Harness.churn in
    Printf.printf "  unjustified evictions: %d, total: %d\n"
      churn.Membership.unjustified_evictions churn.Membership.evictions;
    Printf.printf "  mean groups: %.1f, mean size: %.1f\n" r.Harness.mean_groups
      r.Harness.mean_group_size;
    Format.printf "  view lifetime: %a rounds@." Dgs_util.Stats.pp_summary
      churn.Membership.lifetime
  in
  let model =
    let names = List.map (fun (m, _) -> (m, m)) mobility_specs in
    Arg.(
      value & opt (enum names) "highway"
      & info [ "m"; "model" ] ~docv:"MODEL"
          ~doc:(Printf.sprintf "Mobility model: %s." (doc_alts_enum names)))
  in
  let speed = speed_arg ~default:0.05 ~doc:"Node speed" in
  let rounds = rounds_arg 300 in
  Cmd.v
    (Cmd.info "mobility" ~doc:"Run GRP under a mobility model and report continuity.")
    Term.(
      const run $ model $ nodes_arg $ dmax_arg $ seed_arg $ speed $ rounds $ trace_arg
      $ trace_filter_arg $ trace_max_mb_arg $ metrics_arg)

let experiment_cmd =
  (* Experiments are metered from out here — a labelled wall-clock timer
     and a table counter per suite — rather than plumbing the registry
     through every experiment driver. *)
  let run_one reg quick jobs csv e =
    Printf.printf "\n### %s — %s ###\n" (String.uppercase_ascii e.Experiments.id)
      e.Experiments.title;
    let tm =
      Registry.timer reg
        (Registry.labelled Names.experiment_ns [ ("id", e.Experiments.id) ])
    in
    let tables = Registry.Timer.time tm (fun () -> e.Experiments.run ~quick ~jobs ()) in
    Registry.Counter.add
      (Registry.counter reg Names.experiment_tables_total)
      (List.length tables);
    List.iter Dgs_metrics.Table.print tables;
    Option.iter
      (fun dir ->
        export_csv dir
          (List.mapi
             (fun i table ->
               (Printf.sprintf "%s_%d.csv" e.Experiments.id i, Dgs_metrics.Table.to_csv table))
             tables)
          ())
      csv
  in
  let run id quick jobs csv metrics_file =
    let jobs = resolve_jobs jobs in
    let reg = metrics_registry metrics_file in
    List.iter (run_one reg quick jobs csv)
      (if id = "all" then Experiments.all else Option.to_list (Experiments.find id));
    Option.iter (fun path -> write_metrics path [ Registry.snapshot ~jobs reg ]) metrics_file
  in
  let id =
    let ids =
      List.map (fun id -> (id, id))
        ("all" :: List.map (fun e -> e.Experiments.id) Experiments.all)
    in
    Arg.(
      value & pos 0 (enum ids) "all"
      & info [] ~docv:"ID" ~doc:(Printf.sprintf "Experiment id: %s." (doc_alts_enum ids)))
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sizes and fewer repetitions.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv).")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one of the evaluation experiments.")
    Term.(const run $ id $ quick $ independent_jobs_arg $ csv $ metrics_arg)

let fuzz_cmd =
  let run seed runs max_actions jobs replay strict coverage repro_dir trace_file
      trace_filter trace_max_mb metrics_file =
    let jobs = resolve_jobs jobs in
    match replay with
    | Some path -> (
        match reading (fun () -> Dgs_check.Scenario.load path) with
        | None -> fail "%s is not a scenario file" path
        | Some sc ->
            Format.printf "replaying %a@." Dgs_check.Scenario.pp sc;
            let reg = metrics_registry metrics_file in
            let r =
              with_trace_sink ?trace_max_mb trace_file trace_filter
                (fun sink _ring ->
                  Dgs_check.Fuzz.replay ~strict_continuity:strict ~trace:sink
                    ~metrics:reg sc)
            in
            Format.printf "%a@." Dgs_check.Oracle.pp_report r;
            Option.iter
              (fun path -> write_metrics path [ Registry.snapshot ~jobs:1 reg ])
              metrics_file;
            (* Non-stabilization (e.g. a livelock) is a failure even when
               no predicate fired: a repro that no longer quiesces has not
               been fixed. *)
            exit (if Dgs_check.Oracle.failed r || not r.Dgs_check.Oracle.stabilized then 1 else 0))
    | None ->
        let s =
          Dgs_check.Fuzz.campaign ~strict_continuity:strict ~jobs ~seed ~runs ~max_actions
            ~metrics:(metrics_file <> None) ~coverage ()
        in
        Format.printf "%a@." Dgs_check.Fuzz.pp_summary s;
        (match (metrics_file, s.Dgs_check.Fuzz.metrics) with
        | Some path, Some merged ->
            (* One JSONL line per scenario — each a pure function of the
               scenario, so the stream is identical for every --jobs —
               then the whole-campaign merge as the last line. *)
            let stamp snap = { snap with Registry.jobs = Some jobs } in
            write_metrics path
              (List.map stamp s.Dgs_check.Fuzz.run_snapshots @ [ merged ])
        | _ -> ());
        (match repro_dir with
        | Some dir when s.Dgs_check.Fuzz.failures <> [] ->
            writing ~what:"repro" ~dir (fun () ->
                List.iter
                  (fun f ->
                    Printf.printf "wrote %s\n" (Dgs_check.Fuzz.save_repro ~dir f))
                  s.Dgs_check.Fuzz.failures)
        | _ -> ());
        exit (if s.Dgs_check.Fuzz.failures = [] then 0 else 1)
  in
  let runs =
    Arg.(
      value & opt (at_least 0) 100
      & info [ "runs" ] ~docv:"N" ~doc:"Number of random scenarios to execute, >= 0.")
  in
  let max_actions =
    Arg.(
      value & opt (at_least 0) 12
      & info [ "max-actions" ] ~docv:"N"
          ~doc:"Maximum schedule length per scenario, >= 0.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay one scenario file (as written by --repro-dir or printed in \
             a failure summary) instead of fuzzing.  Exits non-zero on any \
             oracle violation or when the run fails to stabilize.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict-continuity" ]
          ~doc:"Treat every view eviction as a failure (no calm-window gating).")
  in
  let coverage =
    Arg.(
      value & flag
      & info [ "coverage" ]
          ~doc:
            "Coverage-guided campaign: generate scenarios (including mobility \
             and ramp actions) from evolving per-action-family weights that \
             chase unseen rare protocol states, and print the coverage \
             summary.  Deterministic for every --jobs value; uses a \
             different scenario stream than an unguided campaign with the \
             same seed.")
  in
  let repro_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Write each shrunk failing scenario as a replayable file into $(docv).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the protocol with random churn/rewiring/loss scenarios, checking \
          the paper's invariants; failures are minimized to a smallest \
          still-failing script.  Exits non-zero when a violation was found.")
    Term.(
      const run $ seed_arg $ runs $ max_actions $ independent_jobs_arg $ replay $ strict
      $ coverage $ repro_dir
      $ requires ~opt:"trace" ~partner:"replay" trace_arg replay
      $ trace_filter_arg $ trace_max_mb_arg $ metrics_arg)

let report_cmd =
  let run trace_file metrics_file csv_dir =
    if trace_file = None && metrics_file = None then
      fail "report: need --trace FILE and/or --metrics FILE";
    (match trace_file with
    | None -> ()
    | Some path -> (
        match reading (fun () -> Trace.Jsonl.load path) with
        | [] -> fail "no trace events in %s" path
        | events ->
            (* The CSV files are written before anything is printed, so a
               failed write reports nothing but the failure. *)
            let a = Postmortem.analyze events in
            let announce =
              Option.fold ~none:ignore
                ~some:(fun dir -> export_csv dir (Postmortem.csv_exports a))
                csv_dir
            in
            print_string (Postmortem.render a);
            print_newline ();
            announce ()));
    match metrics_file with
    | None -> ()
    | Some path -> (
        let text = reading (fun () -> In_channel.with_open_text path In_channel.input_all) in
        let snaps =
          List.filter_map Registry.snapshot_of_json
            (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text))
        in
        match snaps with
        | [] ->
            fail
              "no metrics snapshots parsed from %s (JSON/JSONL as written by --metrics; \
               .prom files are not readable back)"
              path
        | _ ->
            print_string (Postmortem.render_snapshots snaps);
            print_newline ())
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Analyze a JSONL event trace recorded with --trace.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Render metrics snapshot(s) recorded with --metrics (JSON or \
             JSONL).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:
            "Also export the trace analysis (timeline, stabilization, \
             evictions, distributions) as CSV files into $(docv).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Post-mortem analysis of a recorded run: convergence timeline, \
          per-node view stabilization, eviction chains and group size / \
          lifetime distributions from a trace file, plus rendered metrics \
          snapshots — without re-running the simulation.")
    Term.(const run $ trace $ metrics $ requires ~opt:"csv" ~partner:"trace" csv trace)

let explain_cmd =
  let module Causal = Dgs_trace.Causal in
  (* Query values are "node=N" so the command line reads like the question:
     `explain --eviction node=3`. *)
  let node_query_conv =
    let parse s =
      match String.split_on_char '=' s with
      | [ "node"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (`Msg (Printf.sprintf "bad node id %S" n)))
      | _ -> Error (`Msg (Printf.sprintf "expected node=N, got %S" s))
    in
    Arg.conv (parse, fun ppf n -> Format.fprintf ppf "node=%d" n)
  in
  let explain_chain dag ~what ~target ids dot =
    Printf.printf "%s\n" what;
    Format.printf "  matched %a@." Causal.pp_step (dag, target);
    Printf.printf "causal chain (%d hops, trace event ids in [#..]):\n"
      (List.length ids);
    Format.printf "%a@." Causal.pp_chain (dag, ids);
    Option.iter
      (fun path ->
        writing ~what:"dot" (fun () ->
            write_file path (Causal.to_dot dag ids);
            Printf.printf "dot written to %s\n" path))
      dot
  in
  let run trace_file eviction view_change livelock at dot =
    (* --eviction and --view-change both ask for the last view change that
       matches: an eviction of n is any view change whose removed set names
       n. *)
    let node_queries =
      List.filter_map Fun.id
        [
          Option.map
            (fun n ->
              ( Printf.sprintf "eviction of node %d" n,
                function Trace.View_changed { removed; _ } -> List.mem n removed | _ -> false ))
            eviction;
          Option.map
            (fun n ->
              ( Printf.sprintf "view change at node %d" n,
                function Trace.View_changed { node; _ } -> node = n | _ -> false ))
            view_change;
        ]
    in
    let query =
      match (node_queries, livelock) with
      | [ q ], false -> `Last q
      | [], true -> `Livelock
      | _ -> fail "explain: give exactly one of --eviction node=N, --view-change node=N, --livelock"
    in
    let dag = reading (fun () -> Causal.of_file trace_file) in
    if Causal.size dag = 0 then begin
      Printf.eprintf "grp_sim: no protocol events in %s\n" trace_file;
      exit 1
    end;
    match query with
    | `Last (what, matches) -> (
        match Causal.find_last dag ?at (fun _ ev -> matches ev) with
        | None ->
            Printf.eprintf "grp_sim: no %s found in %s%s\n" what trace_file
              (match at with
              | Some t -> Printf.sprintf " at time <= %g" t
              | None -> "");
            exit 1
        | Some id ->
            explain_chain dag ~what:(what ^ ":") ~target:id (Causal.chain dag id) dot)
    | `Livelock -> (
        match Causal.slice_period dag with
        | None ->
            Printf.eprintf
              "grp_sim: no recurring protocol transition in %s — the trace \
               does not look like a livelock\n"
              trace_file;
            exit 1
        | Some (start, last, ids) ->
            let t0, _ = Causal.event dag start in
            let t1, _ = Causal.event dag last in
            Printf.printf
              "livelock: recurring protocol transition, period %g (t=%g .. \
               t=%g, %d events in one rotation)\n"
              (t1 -. t0) t0 t1 (List.length ids);
            (* The chain from the period's closing view change back past its
               opening recurrence covers exactly one full rotation. *)
            explain_chain dag ~what:"one full rotation:" ~target:last
              (Causal.chain dag ~stop_at:t0 last)
              dot)
  in
  let trace =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"The JSONL event trace to explain (as recorded by --trace).")
  in
  let eviction =
    Arg.(
      value
      & opt (some node_query_conv) None
      & info [ "eviction" ] ~docv:"node=N"
          ~doc:
            "Explain the last eviction of node $(i,N): the latest view change \
             whose removed set names it, traced back through the messages and \
             view changes that caused it.")
  in
  let view_change =
    Arg.(
      value
      & opt (some node_query_conv) None
      & info [ "view-change" ] ~docv:"node=N"
          ~doc:"Explain the last view change at node $(i,N).")
  in
  let livelock =
    Arg.(
      value & flag
      & info [ "livelock" ]
          ~doc:
            "Detect a recurring protocol transition (a view change or a \
             mark/quarantine/merge/contest decision that repeats, with the \
             whole decision sequence between the recurrences repeating one \
             period earlier) and print the causal chain covering one full \
             rotation.")
  in
  let at =
    Arg.(
      value
      & opt (some float) None
      & info [ "at" ] ~docv:"T"
          ~doc:
            "Restrict --eviction/--view-change to events at trace time <= \
             $(docv) (default: the whole trace).")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Also write the printed chain as a Graphviz digraph to $(docv).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Root-cause queries over a recorded trace: rebuild the message-lineage \
          DAG from the lid/cause provenance fields and print the minimal \
          causal chain behind an eviction, a view change, or a livelock \
          rotation — as an indented timeline with trace times and hop counts.")
    Term.(const run $ trace $ eviction $ view_change $ livelock $ at $ dot)

let vanet_cmd =
  let scenario_conv =
    let parse s =
      match Vanet.scenario_of_string s with
      | Some sc -> Ok sc
      | None -> Error (`Msg (Printf.sprintf "unknown scenario %S (try: highway, city)" s))
    in
    Arg.conv (parse, fun ppf sc -> Format.pp_print_string ppf (Vanet.scenario_name sc))
  in
  let run scenario n dmax seed speed range rounds warmup oracle_every jobs shards jitter
      metrics_file =
    let jobs = resolve_jobs jobs in
    (* One registry per shard, each touched only by its own worker; the
       merged counters are identical for every --jobs/--shards split of
       the same run. *)
    let regs = ref [] in
    let make_metrics =
      match metrics_file with
      | None -> None
      | Some _ ->
          Some
            (fun _ ->
              let reg = Registry.create () in
              regs := reg :: !regs;
              reg)
    in
    let r =
      Vanet.run ~seed ~dmax ~range ~speed ~rounds ~warmup ~oracle_every ~jobs ?shards ~jitter
        ?make_metrics ~scenario ~n ()
    in
    Format.printf "%a@." Vanet.pp_report r;
    Option.iter
      (fun path ->
        write_metrics path [ Registry.merge (List.map (Registry.snapshot ~jobs) !regs) ])
      metrics_file
  in
  let scenario =
    Arg.(
      value & opt scenario_conv Vanet.Highway
      & info [ "scenario" ] ~docv:"SCENARIO" ~doc:"VANET scenario: highway or city.")
  in
  let nodes =
    Arg.(
      value & opt (at_least 0) 10_000
      & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of vehicles.")
  in
  let speed = speed_arg ~default:0.15 ~doc:"Mean vehicle speed" in
  let range =
    Arg.(
      value
      & opt (checked_float ~expected:"a finite number > 0" (fun r -> Float.is_finite r && r > 0.0)) 2.0
      & info [ "range" ] ~docv:"RANGE" ~doc:"Radio range (unit-disk radius), finite and > 0.")
  in
  let rounds = rounds_arg 50 in
  let warmup =
    Arg.(
      value & opt (at_least 0) 10
      & info [ "warmup" ] ~docv:"ROUNDS" ~doc:"Warmup rounds before measuring, >= 0.")
  in
  let oracle_every =
    Arg.(
      value & opt (at_least 1) 5
      & info [ "oracle-every" ] ~docv:"ROUNDS"
          ~doc:
            "Rounds between polls of the incremental oracle, >= 1; the last \
             measured round is always polled.")
  in
  let shards =
    Arg.(
      value
      & opt (some (at_least 1)) None
      & info [ "shards" ] ~docv:"SHARDS"
          ~doc:
            "Logical spatial shards the node set is cut into, >= 1 (default: \
             the resolved --jobs).  Results are independent of the choice; more \
             shards than jobs trades locality for load balance.")
  in
  let jobs =
    jobs_arg
      ~doc:
        "Number of worker domains that run the shards of the one \
         simulation, >= 0 (0 = one per core).  The report is identical for \
         every value apart from its jobs= and shards= fields; only wall \
         clock changes."
  in
  let jitter =
    Arg.(
      value
      & opt (checked_float ~expected:"a probability in [0, 1]" (fun p -> p >= 0.0 && p <= 1.0)) 0.1
      & info [ "jitter" ] ~docv:"P"
          ~doc:
            "Per-node probability of skipping a compute each round (the \
             asynchrony knob of the round model); 0 makes every node compute \
             every round, 1 disables computes entirely (delivery-path \
             measurements).")
  in
  Cmd.v
    (Cmd.info "vanet"
       ~doc:
         "Large-scale VANET scenario: highway or Manhattan city at 10k+ \
          nodes, spatial-grid graph rebuild per round, sharded across \
          domains with --jobs, incremental oracle on structure-shared \
          snapshots; reports message and compute counts, topology and the \
          final verdicts.  Timing lives in perfbench's vanet_highway \
          workload.")
    Term.(
      const run $ scenario $ nodes $ dmax_arg $ seed_arg $ speed $ range $ rounds
      $ warmup $ oracle_every $ jobs $ shards $ jitter $ metrics_arg)

let list_cmd =
  let run () =
    Printf.printf "topologies:\n";
    List.iter (fun (s, _) -> Printf.printf "  %s\n" s) topologies;
    Printf.printf "experiments:\n";
    List.iter
      (fun e -> Printf.printf "  %-4s %s\n" e.Experiments.id e.Experiments.title)
      Experiments.all;
    Printf.printf "trace event kinds (--trace-filter):\n";
    List.iter (fun k -> Printf.printf "  %s\n" k) Trace.kinds;
    Printf.printf "metric families (--metrics):\n";
    List.iter (fun m -> Printf.printf "  %s\n" m) Names.all
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List topologies, experiments, trace event kinds and metric families.")
    Term.(const run $ const ())

(* cmdliner binds an unambiguous prefix of a long option to that option,
   with no switch to turn it off, so a removed switch silently became a
   surviving one (`vanet --oracle 3` ran with --oracle-every 3).  Every long
   option must be spelled out in full: one that is not exactly an option of
   the chosen subcommand, as its plain-text manual lists them, is a usage
   error.  An unknown or ambiguous subcommand is left to cmdliner. *)
let reject_prefixes root cmds argv =
  let cmd_end =
    if Array.length argv > 1 && not (String.starts_with ~prefix:"-" argv.(1)) then 2 else 1
  in
  let known c = String.starts_with ~prefix:argv.(1) (Cmd.name c) in
  let given =
    Array.to_list (Array.sub argv cmd_end (Array.length argv - cmd_end))
    |> List.filter (fun a -> String.length a > 2 && String.starts_with ~prefix:"--" a)
    |> List.map (fun a -> List.hd (String.split_on_char '=' a))
  in
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  let manual = Array.append (Array.sub argv 0 cmd_end) [| "--help=plain" |] in
  if given <> []
     && (cmd_end = 1 || List.exists known cmds)
     && Cmd.eval_value ~help:ppf ~err:ppf ~argv:manual root = Ok `Help
  then begin
    Format.pp_print_flush ppf ();
    let names =
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.filter (String.starts_with ~prefix:"       -")
      |> List.concat_map (fun line ->
             String.split_on_char ' ' (String.map (function ',' | '=' | '[' -> ' ' | c -> c) line))
    in
    Option.iter
      (fun a ->
        Printf.eprintf
          "grp_sim: unknown option '%s'; long options are spelled out in full (see --help)\n" a;
        exit Cmd.Exit.cli_error)
      (List.find_opt (fun a -> not (List.mem a names)) given)
  end

let () =
  let doc = "Best-effort group service in dynamic networks (GRP) — simulator" in
  let info = Cmd.info "grp_sim" ~version:"1.0.0" ~doc in
  (* With no subcommand, run the quickstart scenario (converge on the
     default topology) so `grp_sim --trace run.jsonl` traces out of the
     box. *)
  let cmds =
    [
      converge_cmd;
      mobility_cmd;
      vanet_cmd;
      experiment_cmd;
      fuzz_cmd;
      report_cmd;
      explain_cmd;
      list_cmd;
    ]
  in
  let root = Cmd.group ~default:converge_term info cmds in
  reject_prefixes root cmds Sys.argv;
  exit (Cmd.eval root)
