(* The census: every connected labelled graph on 2..5 nodes, at Dmax 1-3,
   run from the clean start under three schedules until it settles, and
   every settled configuration judged by ΠA ∧ ΠS ∧ ΠM.  A graph is a
   bitmask over the node pairs of 0..n-1 in lexicographic order: bit 0 is
   0-1, bit 1 is 0-2, and so on.

   The failures known today are listed, one per line with the failing
   predicate, in regressions/census-known-failures.txt.  Like
   regressions/known-livelocks/, the list may only shrink: a failure it
   does not name fails the test, and so does a listed entry that now
   passes — a fix moves it out of the list.  It is a to-do list, not a
   pin of expected behaviour.

   The census draws one jitter and one [Net] stream per case, seeded
   [mask*7 + dmax].  The seed sweep runs the graphs on 2..4 nodes at
   Dmax 1-3 under both schedules with seeds 1-200 each, against its own
   may-only-shrink list, regressions/census-seeds-known-failures.txt. *)

module Graph = Dgs_graph.Graph
module Paths = Dgs_graph.Paths
module Rounds = Dgs_sim.Rounds
module Net = Dgs_sim.Net
module Cfg = Dgs_spec.Configuration
module P = Dgs_spec.Predicates
module Rng = Dgs_util.Rng
open Dgs_core

let known_failures_file = Filename.concat "regressions" "census-known-failures.txt"
let seeds_known_failures_file = Filename.concat "regressions" "census-seeds-known-failures.txt"

let pairs n =
  List.concat (List.init n (fun i -> List.init (n - i - 1) (fun k -> (i, i + k + 1))))

(* (n, mask, graph) for every connected labelled graph on 2..5 nodes. *)
let graphs =
  lazy
    (List.concat_map
       (fun n ->
         let pairs = pairs n in
         List.init (1 lsl List.length pairs) Fun.id
         |> List.filter_map (fun mask ->
                let edges = List.filteri (fun b _ -> mask land (1 lsl b) <> 0) pairs in
                let g = Graph.of_edges ~nodes:(List.init n Fun.id) edges in
                if Paths.is_connected g then Some (n, mask, g) else None))
       [ 2; 3; 4; 5 ])

(* [None] when the run settled legitimate, else what failed. *)
let judge ~dmax ~settled g views =
  if not settled then Some "never-settles"
  else
    Option.map (fun v -> v.P.predicate) (P.legitimate ~dmax (Cfg.make ~graph:g ~views))

let lockstep ~seed:_ ~dmax g =
  let t = Rounds.create ~config:(Config.make ~dmax ()) g in
  let settled = Rounds.run_until_stable ~max_rounds:400 t <> None in
  judge ~dmax ~settled g (Rounds.views t)

let jitter ~seed ~dmax g =
  let t = Rounds.create ~config:(Config.make ~dmax ()) g in
  let rng = Rng.create seed in
  let settled = Rounds.run_until_stable ~jitter:0.1 ~rng ~max_rounds:400 t <> None in
  judge ~dmax ~settled g (Rounds.views t)

(* The paper's own timer model: Tc/Ts timers with random phases on the
   event-driven runtime, polled once per Tc until [Grp_node.quiet_rounds]
   consecutive polls see the same protocol state, for at most 400 Tc. *)
let net ~seed ~dmax g =
  let config = Config.make ~dmax () in
  let net =
    Net.create ~rng:(Rng.create seed) ~config
      ~topology:(fun () -> g)
      ~nodes:(Graph.nodes g) ()
  in
  let rec settles k prev quiet =
    quiet >= Grp_node.quiet_rounds config
    || k <= 400
       && begin
            Net.run_until net (float_of_int k *. Net.tau_c);
            let s = Net.state_signature net in
            settles (k + 1) s (if List.equal Grp_node.same_state s prev then quiet + 1 else 0)
          end
  in
  let settled = settles 1 (Net.state_signature net) 0 in
  judge ~dmax ~settled g (Net.views net)

let known file schedule =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line ->
        let line = String.trim line in
        let mine =
          line <> "" && line.[0] <> '#'
          && List.hd (String.split_on_char ' ' line) = schedule
        in
        go (if mine then line :: acc else acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Every failing run of [run] on [graphs] at Dmax 1-3 against [file]'s
   entries for [schedule]; [seeds] gives each case's seeds, and
   [seed_field] whether an entry names its seed. *)
let check_known ~file ~seeds ~seed_field schedule run graphs =
  let failures =
    List.concat_map
      (fun (n, mask, g) ->
        List.concat_map
          (fun dmax ->
            List.filter_map
              (fun seed ->
                Option.map
                  (fun what ->
                    let seed = if seed_field then Printf.sprintf " seed=%d" seed else "" in
                    Printf.sprintf "%s n=%d mask=%d dmax=%d%s %s" schedule n mask dmax seed what)
                  (run ~seed ~dmax g))
              (seeds ~mask ~dmax))
          [ 1; 2; 3 ])
      graphs
  in
  let known = known file schedule in
  let missing_from l x = not (List.mem x l) in
  Alcotest.(check (list string))
    ("failures not in " ^ Filename.basename file) []
    (List.filter (missing_from known) failures);
  Alcotest.(check (list string))
    "listed failures that now pass (remove them from the list)" []
    (List.filter (missing_from failures) known)

let census schedule run () =
  check_known ~file:known_failures_file
    ~seeds:(fun ~mask ~dmax -> [ (mask * 7) + dmax ])
    ~seed_field:false schedule run (Lazy.force graphs)

let seed_sweep schedule run () =
  check_known ~file:seeds_known_failures_file
    ~seeds:(fun ~mask:_ ~dmax:_ -> List.init 200 succ)
    ~seed_field:true schedule run
    (List.filter (fun (n, _, _) -> n <= 4) (Lazy.force graphs))

let suite =
  [
    ("graph enumeration", `Quick, fun () ->
        Alcotest.(check int) "connected labelled graphs on 2..5 nodes" 771
          (List.length (Lazy.force graphs)));
    ("lockstep n<=5", `Slow, census "lockstep" lockstep);
    ("jitter 0.1 n<=5", `Slow, census "jitter" jitter);
    ("net n<=5", `Slow, census "net" net);
    ("jitter 0.1 n<=4 seeds 1-200", `Slow, seed_sweep "jitter" jitter);
    ("net n<=4 seeds 1-200", `Slow, seed_sweep "net" net);
  ]
