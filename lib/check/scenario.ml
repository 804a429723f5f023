module Graph = Dgs_graph.Graph
module Gen = Dgs_graph.Gen
module Rng = Dgs_util.Rng

type topology =
  | Line of int
  | Ring of int
  | Grid of int * int
  | Star of int
  | Complete of int
  | Btree of int
  | Chain of int * int
  | Loop of int * int
  | Er of int * float * int

type mob_model = Mob_waypoint | Mob_walk | Mob_highway | Mob_manhattan

type action =
  | Pause of float
  | Deactivate of int
  | Activate of int
  | Reset of int
  | Remove of int
  | Add of int
  | Set_loss of float
  | Add_edge of int * int
  | Remove_edge of int * int
  | Mob_start of mob_model * float
  | Mob_step of int
  | Ramp_loss of float * int
  | Ramp_corruption of float * int

type t = {
  seed : int;
  dmax : int;
  loss : float;
  corruption : float;
  topology : topology;
  actions : action list;
}

let node_count = function
  | Line n | Ring n | Star n | Complete n | Btree n -> n
  | Grid (r, c) -> r * c
  | Chain (g, s) | Loop (g, s) -> g * s
  | Er (n, _, _) -> n

let build = function
  | Line n -> Gen.line n
  | Ring n -> Gen.ring n
  | Grid (r, c) -> Gen.grid r c
  | Star n -> Gen.star n
  | Complete n -> Gen.complete n
  | Btree n -> Gen.binary_tree n
  | Chain (g, s) -> Gen.group_chain ~groups:g ~group_size:s
  | Loop (g, s) -> Gen.group_loop ~groups:g ~group_size:s
  | Er (n, p, seed) -> Gen.erdos_renyi (Rng.create seed) ~n ~p

type family =
  | F_pause
  | F_deactivate
  | F_activate
  | F_reset
  | F_remove
  | F_add
  | F_set_loss
  | F_add_edge
  | F_remove_edge
  | F_mob_start
  | F_mob_step
  | F_ramp_loss
  | F_ramp_corruption

let families =
  [
    F_pause;
    F_deactivate;
    F_activate;
    F_reset;
    F_remove;
    F_add;
    F_set_loss;
    F_add_edge;
    F_remove_edge;
    F_mob_start;
    F_mob_step;
    F_ramp_loss;
    F_ramp_corruption;
  ]

let family_name = function
  | F_pause -> "pause"
  | F_deactivate -> "deactivate"
  | F_activate -> "activate"
  | F_reset -> "reset"
  | F_remove -> "remove"
  | F_add -> "add"
  | F_set_loss -> "loss"
  | F_add_edge -> "add-edge"
  | F_remove_edge -> "remove-edge"
  | F_mob_start -> "mob-start"
  | F_mob_step -> "mob-step"
  | F_ramp_loss -> "ramp-loss"
  | F_ramp_corruption -> "ramp-corruption"

let family_of_action = function
  | Pause _ -> F_pause
  | Deactivate _ -> F_deactivate
  | Activate _ -> F_activate
  | Reset _ -> F_reset
  | Remove _ -> F_remove
  | Add _ -> F_add
  | Set_loss _ -> F_set_loss
  | Add_edge _ -> F_add_edge
  | Remove_edge _ -> F_remove_edge
  | Mob_start _ -> F_mob_start
  | Mob_step _ -> F_mob_step
  | Ramp_loss _ -> F_ramp_loss
  | Ramp_corruption _ -> F_ramp_corruption

(* The topology and channel draws both generators start with: a scenario
   with no actions yet, and a node-id drawer with a few spare ids beyond
   the initial range, so Add can introduce genuinely new nodes (and churn
   actions can harmlessly target unknown ids). *)
let prelude rng =
  let seed = Rng.int rng 1_000_000_000 in
  let dmax = Rng.int_in rng 1 3 in
  let topology =
    match Rng.int rng 9 with
    | 0 -> Line (Rng.int_in rng 3 8)
    | 1 -> Ring (Rng.int_in rng 3 8)
    | 2 -> Grid (Rng.int_in rng 2 3, Rng.int_in rng 2 3)
    | 3 -> Star (Rng.int_in rng 3 7)
    | 4 -> Complete (Rng.int_in rng 3 6)
    | 5 -> Btree (Rng.int_in rng 3 9)
    | 6 -> Chain (Rng.int_in rng 2 3, Rng.int_in rng 2 3)
    | 7 -> Loop (3, Rng.int_in rng 2 3)
    | _ -> Er (Rng.int_in rng 5 9, Rng.float_in rng 0.25 0.6, Rng.int rng 1_000_000)
  in
  let loss = if Rng.bernoulli rng 0.3 then Rng.float rng 0.3 else 0.0 in
  let corruption = if Rng.bernoulli rng 0.15 then Rng.float rng 0.05 else 0.0 in
  let n = node_count topology in
  ({ seed; dmax; loss; corruption; topology; actions = [] }, fun () -> Rng.int rng (n + 3))

(* One action of the given family, with the same draws in both
   generators.  [started] records whether the schedule has installed a
   mobility model yet: a [Mob_step] before any [Mob_start] would replay as
   a no-op, so the first mobility draw of a schedule always materializes
   as the [Mob_start]. *)
let draw rng node started = function
  | F_pause -> Pause (Rng.float_in rng 0.5 12.0)
  | F_deactivate -> Deactivate (node ())
  | F_activate -> Activate (node ())
  | F_reset -> Reset (node ())
  | F_remove -> Remove (node ())
  | F_add -> Add (node ())
  | F_set_loss -> Set_loss (if Rng.bool rng then 0.0 else Rng.float rng 0.4)
  | F_add_edge -> Add_edge (node (), node ())
  | F_remove_edge -> Remove_edge (node (), node ())
  | F_mob_step when !started -> Mob_step (Rng.int_in rng 1 6)
  | F_mob_start | F_mob_step ->
      started := true;
      let models = [| Mob_waypoint; Mob_walk; Mob_highway; Mob_manhattan |] in
      let model = models.(Rng.int rng 4) in
      Mob_start (model, Rng.float_in rng 0.05 0.6)
  | F_ramp_loss ->
      let target = if Rng.bool rng then 0.0 else Rng.float rng 0.4 in
      Ramp_loss (target, Rng.int_in rng 2 8)
  | F_ramp_corruption -> Ramp_corruption (Rng.float rng 0.05, Rng.int_in rng 2 8)

(* A scenario after the [prelude]: a drawn action count, then each action's
   family from [pick] followed by that family's [draw]. *)
let with_actions rng ~max_actions ~pick =
  let sc, node = prelude rng in
  let started = ref false in
  let count = Rng.int_in rng 1 (max 1 max_actions) in
  let rec make k acc =
    if k = 0 then List.rev acc
    else
      let a = draw rng node started (pick ()) in
      make (k - 1) (a :: acc)
  in
  { sc with actions = make count [] }

(* The uniform generator draws each family from fixed percentages over the
   nine churn/rewiring/loss families; it never draws mobility or ramps. *)
let generate rng ~max_actions =
  with_actions rng ~max_actions ~pick:(fun () ->
      match Rng.int rng 100 with
      | x when x < 35 -> F_pause
      | x when x < 45 -> F_deactivate
      | x when x < 55 -> F_activate
      | x when x < 60 -> F_reset
      | x when x < 65 -> F_remove
      | x when x < 70 -> F_add
      | x when x < 78 -> F_set_loss
      | x when x < 89 -> F_add_edge
      | _ -> F_remove_edge)

(* The coverage-guided generator draws each family from an explicit weight
   vector (one weight per [families] entry, in order) instead — the knob
   the campaign-level weight evolver turns.  Only the family pick differs
   from [generate]; the mob-step weight also buys mobility models into
   schedules that would otherwise never install one. *)
let generate_weighted rng ~max_actions ~weights =
  let nf = List.length families in
  if Array.length weights <> nf then
    invalid_arg "Scenario.generate_weighted: weight vector size mismatch";
  Array.iter
    (fun w ->
      if not (Float.is_finite w) || w <= 0.0 then
        invalid_arg "Scenario.generate_weighted: weights must be positive")
    weights;
  let total = Array.fold_left ( +. ) 0.0 weights in
  with_actions rng ~max_actions ~pick:(fun () ->
      let x = Rng.float rng total in
      let rec go i acc =
        if i >= nf - 1 then List.nth families (nf - 1)
        else
          let acc = acc +. weights.(i) in
          if x < acc then List.nth families i else go (i + 1) acc
      in
      go 0 0.0)

module Json = Dgs_util.Json

let topology_to_string = function
  | Line n -> Printf.sprintf "line %d" n
  | Ring n -> Printf.sprintf "ring %d" n
  | Grid (r, c) -> Printf.sprintf "grid %d %d" r c
  | Star n -> Printf.sprintf "star %d" n
  | Complete n -> Printf.sprintf "complete %d" n
  | Btree n -> Printf.sprintf "btree %d" n
  | Chain (g, s) -> Printf.sprintf "chain %d %d" g s
  | Loop (g, s) -> Printf.sprintf "loop %d %d" g s
  | Er (n, p, seed) -> Printf.sprintf "er %d %s %d" n (Json.num p) seed

let topology_of_string s =
  let int = int_of_string_opt and flt = float_of_string_opt in
  match String.split_on_char ' ' (String.trim s) with
  | [ "line"; n ] -> Option.map (fun n -> Line n) (int n)
  | [ "ring"; n ] -> Option.map (fun n -> Ring n) (int n)
  | [ "grid"; r; c ] -> (
      match (int r, int c) with
      | Some r, Some c -> Some (Grid (r, c))
      | _ -> None)
  | [ "star"; n ] -> Option.map (fun n -> Star n) (int n)
  | [ "complete"; n ] -> Option.map (fun n -> Complete n) (int n)
  | [ "btree"; n ] -> Option.map (fun n -> Btree n) (int n)
  | [ "chain"; g; s ] -> (
      match (int g, int s) with
      | Some g, Some s -> Some (Chain (g, s))
      | _ -> None)
  | [ "loop"; g; s ] -> (
      match (int g, int s) with
      | Some g, Some s -> Some (Loop (g, s))
      | _ -> None)
  | [ "er"; n; p; seed ] -> (
      match (int n, flt p, int seed) with
      | Some n, Some p, Some seed -> Some (Er (n, p, seed))
      | _ -> None)
  | _ -> None

let mob_model_to_string = function
  | Mob_waypoint -> "waypoint"
  | Mob_walk -> "walk"
  | Mob_highway -> "highway"
  | Mob_manhattan -> "manhattan"

let mob_model_of_string = function
  | "waypoint" -> Some Mob_waypoint
  | "walk" -> Some Mob_walk
  | "highway" -> Some Mob_highway
  | "manhattan" -> Some Mob_manhattan
  | _ -> None

let action_to_string = function
  | Pause d -> Printf.sprintf "pause %s" (Json.num d)
  | Deactivate v -> Printf.sprintf "deactivate %d" v
  | Activate v -> Printf.sprintf "activate %d" v
  | Reset v -> Printf.sprintf "reset %d" v
  | Remove v -> Printf.sprintf "remove %d" v
  | Add v -> Printf.sprintf "add %d" v
  | Set_loss p -> Printf.sprintf "loss %s" (Json.num p)
  | Add_edge (u, v) -> Printf.sprintf "add-edge %d %d" u v
  | Remove_edge (u, v) -> Printf.sprintf "remove-edge %d %d" u v
  | Mob_start (m, speed) ->
      Printf.sprintf "mob-start %s %s" (mob_model_to_string m) (Json.num speed)
  | Mob_step k -> Printf.sprintf "mob-step %d" k
  | Ramp_loss (p, steps) -> Printf.sprintf "ramp-loss %s %d" (Json.num p) steps
  | Ramp_corruption (p, steps) ->
      Printf.sprintf "ramp-corruption %s %d" (Json.num p) steps

let action_of_string s =
  let int = int_of_string_opt in
  (* A non-finite pause never ends and a NaN rate passes every range
     clamp, so neither is a schedule. *)
  let flt x =
    match float_of_string_opt x with
    | Some f when Float.is_finite f -> Some f
    | _ -> None
  in
  match String.split_on_char ' ' (String.trim s) with
  | [ "pause"; d ] -> Option.map (fun d -> Pause d) (flt d)
  | [ "deactivate"; v ] -> Option.map (fun v -> Deactivate v) (int v)
  | [ "activate"; v ] -> Option.map (fun v -> Activate v) (int v)
  | [ "reset"; v ] -> Option.map (fun v -> Reset v) (int v)
  | [ "remove"; v ] -> Option.map (fun v -> Remove v) (int v)
  | [ "add"; v ] -> Option.map (fun v -> Add v) (int v)
  | [ "loss"; p ] -> Option.map (fun p -> Set_loss p) (flt p)
  | [ "add-edge"; u; v ] -> (
      match (int u, int v) with
      | Some u, Some v -> Some (Add_edge (u, v))
      | _ -> None)
  | [ "remove-edge"; u; v ] -> (
      match (int u, int v) with
      | Some u, Some v -> Some (Remove_edge (u, v))
      | _ -> None)
  | [ "mob-start"; m; speed ] -> (
      match (mob_model_of_string m, flt speed) with
      | Some m, Some speed -> Some (Mob_start (m, speed))
      | _ -> None)
  | [ "mob-step"; k ] -> Option.map (fun k -> Mob_step k) (int k)
  | [ "ramp-loss"; p; steps ] -> (
      match (flt p, int steps) with
      | Some p, Some steps -> Some (Ramp_loss (p, steps))
      | _ -> None)
  | [ "ramp-corruption"; p; steps ] -> (
      match (flt p, int steps) with
      | Some p, Some steps -> Some (Ramp_corruption (p, steps))
      | _ -> None)
  | _ -> None

let to_string sc =
  let int n = Json.Num (float_of_int n) in
  Json.to_string
    (Json.Obj
       [
         ("seed", int sc.seed);
         ("dmax", int sc.dmax);
         ("loss", Json.Num sc.loss);
         ("corruption", Json.Num sc.corruption);
         ("topology", Json.Str (topology_to_string sc.topology));
         ( "actions",
           Json.Arr (List.map (fun a -> Json.Str (action_to_string a)) sc.actions) );
       ])

let of_string s =
  let ( let* ) = Option.bind in
  let* v = Json.of_string s in
  let num k = match Json.field k v with Some (Json.Num f) -> Some f | _ -> None in
  let str k = match Json.field k v with Some (Json.Str s) -> Some s | _ -> None in
  let action = function Json.Str s -> action_of_string s | _ -> None in
  let* seed = num "seed" in
  let* dmax = num "dmax" in
  let* loss = num "loss" in
  let* corruption = num "corruption" in
  let* topology = Option.bind (str "topology") topology_of_string in
  let* actions =
    match Json.field "actions" v with
    | Some (Json.Arr items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* a = action item in
            Some (a :: acc))
          items (Some [])
    | _ -> None
  in
  let seed = int_of_float seed and dmax = int_of_float dmax in
  let rate p = 0.0 <= p && p <= 1.0 in
  let buildable =
    match build topology with _ -> true | exception Invalid_argument _ -> false
  in
  if dmax >= 1 && rate loss && rate corruption && buildable then
    Some { seed; dmax; loss; corruption; topology; actions }
  else None

let save path sc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string sc);
      output_char oc '\n')

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      of_string (Buffer.contents b))

let equal (a : t) (b : t) = a = b

let pp ppf sc =
  Format.fprintf ppf "@[<h>seed=%d dmax=%d loss=%g corr=%g %s [%s]@]" sc.seed
    sc.dmax sc.loss sc.corruption
    (topology_to_string sc.topology)
    (String.concat "; " (List.map action_to_string sc.actions))
