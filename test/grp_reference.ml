(* A reference GRP node: procedure compute() of the paper (Section 4.3)
   with today's [Config] semantics, written as directly as the rules
   read, on [Map]/[Set], [Antlist]'s public operations and, for the ant
   fold, the list-of-levels model [Antlist_model].

   It keeps no inbox arrays, per-domain scratch, sender standings,
   compute elision, message reuse, metrics or trace, and none of
   [Grp_node]'s shortcuts: it always re-folds after a contest, cut or
   not, always runs the joint admission pass and re-measures the
   established extent for every sender.  The QCheck property in
   [test_reference.ml] drives it and production [Grp_node]s through the
   same rounds and requires equal state every round.  Change [Grp_node]
   freely; change this file only when the protocol itself changes. *)

open Dgs_core
module M = Node_id.Map
module S = Node_id.Set

(* What a node broadcasts: its list, the known priorities of the list
   members, its group priority and its view. *)
type msg = {
  sender : Node_id.t;
  antlist : Antlist.t;
  priorities : Priority.t M.t;
  group_priority : Priority.t;
  view : S.t;
}

type t = {
  id : Node_id.t;
  config : Config.t;
  mutable antlist : Antlist.t;
  mutable view : S.t;
  mutable quarantine : int M.t;
  (* Known priorities, the own entry included. *)
  mutable table : Priority.t M.t;
  mutable own : Priority.t;
  (* sender -> (consecutive exclusion reports, computes since the last) *)
  mutable conflict : (int * int) M.t;
  (* view member -> consecutive computes without admission evidence *)
  mutable starve : int M.t;
  (* far node -> (computes remaining, providers its last win cut) *)
  mutable contest_hold : (int * S.t) M.t;
  mutable oldness_hold : int;
  (* msgSet: the last message heard from each sender *)
  mutable msg_set : msg M.t;
}

let create ~config id =
  let own = Priority.initial id in
  {
    id;
    config;
    antlist = Antlist.singleton id;
    view = S.singleton id;
    quarantine = M.singleton id 0;
    table = M.singleton id own;
    own;
    conflict = M.empty;
    starve = M.empty;
    contest_hold = M.empty;
    oldness_hold = 0;
    msg_set = M.empty;
  }

let receive t (m : msg) =
  if not (Node_id.equal m.sender t.id) then t.msg_set <- M.add m.sender m t.msg_set

let group_priority t =
  M.fold (fun v p acc -> if S.mem v t.view then Priority.min p acc else acc) t.table t.own

let message t =
  {
    sender = t.id;
    antlist = t.antlist;
    priorities = M.filter (fun v _ -> Antlist.mem t.antlist v) t.table;
    group_priority = group_priority t;
    view = t.view;
  }

(* --- fault hooks, as [Grp_node.corrupt_*] --- *)

let corrupt_list t l = t.antlist <- l
let corrupt_view t v = t.view <- v
let corrupt_quarantine t qs = List.iter (fun (v, k) -> t.quarantine <- M.add v k t.quarantine) qs
let corrupt_priority t p = t.own <- p
let corrupt_priority_table t ps = List.iter (fun (v, p) -> t.table <- M.add v p t.table) ps

(* --- reading a list --- *)

let clear_level lst i =
  List.fold_left
    (fun acc (e : Antlist.entry) -> if e.mark = Mark.Clear then S.add e.id acc else acc)
    S.empty (Antlist.level lst i)

let clear_at_some_depth lst v =
  Antlist.exists lst ~f:(fun u _ mark -> Node_id.equal u v && mark = Mark.Clear)

(* The mark of [v]'s entry in level 1 of [lst], if any. *)
let level1_mark lst v =
  List.find_map
    (fun (e : Antlist.entry) -> if Node_id.equal e.id v then Some e.mark else None)
    (Antlist.level lst 1)

let max_pos lst ~f =
  List.fold_left (fun acc (v, pos, mark) -> if f v mark then max acc pos else acc) (-1)
    (Antlist.entries lst)

let single v = Antlist.singleton_marked v Mark.Single
let double v = Antlist.singleton_marked v Mark.Double

(* --- lines 1-9: goodList, compatibleList and joint admission --- *)

(* The sender acknowledges me: its level-1 mark of me, else Clear when it
   lists me Clear deeper, else not at all. *)
let acknowledgment t lst =
  match level1_mark lst t.id with
  | Some m -> Some m
  | None -> if clear_at_some_depth lst t.id then Some Mark.Clear else None

let good_list t ~sender lst =
  ((match level1_mark lst t.id with Some (Mark.Clear | Mark.Single) -> true | _ -> false)
  || clear_at_some_depth lst t.id)
  && (match Antlist.level lst 0 with [ e ] -> Node_id.equal e.id sender | _ -> false)
  && Antlist.clear_size lst <= t.config.Config.dmax + 1
  && not (Antlist.has_empty_level lst)

(* Established: in my view or in a view some sender advertises. *)
let established t v = S.mem v t.view || M.exists (fun _ (m : msg) -> S.mem v m.view) t.msg_set

let compatible_list t ~sender_view lst =
  let dmax = t.config.Config.dmax in
  let q =
    max_pos lst ~f:(fun v mark ->
        mark = Mark.Clear && S.mem v sender_view
        && (not (Node_id.equal v t.id))
        && not (Antlist.mem t.antlist v))
  in
  q < 0
  ||
  let p = max 0 (max_pos t.antlist ~f:(fun v mark -> mark = Mark.Clear && established t v)) in
  p + q + 1 <= dmax
  || t.config.Config.compat_shortcut_enabled
     && List.exists
          (fun i ->
            let li = S.filter (established t) (clear_level t.antlist i) in
            (not (S.is_empty li))
            && S.subset li (Antlist.level_ids lst 1)
            && p - i + 1 + q <= dmax
            && (i / 2) + q + 1 <= dmax)
          (List.init p (fun i -> i + 1))

let same_group t sender (m : msg) =
  S.mem sender t.view
  || S.exists
       (fun v -> (not (Node_id.equal v t.id)) && (not (Node_id.equal v sender)) && S.mem v t.view)
       m.view

let check_each t =
  M.mapi
    (fun sender (m : msg) ->
      let raw = m.antlist in
      let incompatible () =
        (not (same_group t sender m)) && not (compatible_list t ~sender_view:m.view raw)
      in
      match acknowledgment t raw with
      | None -> single sender
      | Some Mark.Double ->
          (* mutual rejection: the lower id keeps the double mark *)
          if Node_id.compare t.id sender < 0 && incompatible () then double sender
          else single sender
      | Some (Mark.Clear | Mark.Single) ->
          if not (good_list t ~sender raw) then single sender
          else if incompatible () then double sender
          else Antlist.strip_marked ~keep:t.id raw)
    t.msg_set

(* The foreign group a sender brings: its reach (entries not double
   marked, outside my view, minus echoes of my own list) and its extent
   (farthest clear member of its view outside mine). *)
let foreign_part t sender =
  let m = M.find sender t.msg_set in
  let mine = S.add t.id t.view in
  let me_pos = match Antlist.find m.antlist t.id with Some (pos, _) -> pos | None -> -1 in
  let echo v pos =
    me_pos >= 0
    &&
    let lv = Antlist.closest_undoubled t.antlist v in
    lv >= 0 && pos >= me_pos + lv
  in
  let entries =
    List.filter
      (fun (v, _, mark) -> mark <> Mark.Double && not (S.mem v mine))
      (Antlist.entries m.antlist)
  in
  let reach =
    List.fold_left
      (fun acc (v, pos, _) -> if echo v pos then acc else S.add v acc)
      S.empty entries
  in
  let ext =
    List.fold_left
      (fun acc (v, pos, mark) ->
        if mark = Mark.Clear && S.mem v m.view then max acc pos else acc)
      (-1) entries
  in
  if ext < 0 then None else Some (reach, ext)

(* [checked] with the senders joint admission rejects double-marked, and
   whether it rejected any. *)
let joint_admission t checked =
  let dmax = t.config.Config.dmax in
  let rejected sender lst =
    Antlist.size lst = 1
    &&
    match Antlist.level lst 0 with
    | [ e ] -> Node_id.equal e.id sender && Mark.is_marked e.mark
    | _ -> false
  in
  let mates, fresh =
    M.partition
      (fun sender _ -> same_group t sender (M.find sender t.msg_set))
      (M.filter (fun sender lst -> not (rejected sender lst)) checked)
  in
  let accepted = ref (List.filter_map (fun (s, _) -> foreign_part t s) (M.bindings mates)) in
  M.bindings fresh
  |> List.map (fun (s, _) -> ((M.find s t.msg_set).group_priority, s))
  |> List.sort (fun (pa, a) (pb, b) ->
         match Priority.compare pa pb with 0 -> Node_id.compare a b | c -> c)
  |> List.fold_left
       (fun (checked, any) (_, sender) ->
         match foreign_part t sender with
         | None -> (checked, any)
         | Some (reach, ext) ->
             if
               List.for_all
                 (fun (reach', ext') -> (not (S.disjoint reach reach')) || ext + ext' + 2 <= dmax)
                 !accepted
             then begin
               accepted := (reach, ext) :: !accepted;
               (checked, any)
             end
             else (M.add sender (double sender) checked, true))
       (checked, false)

(* --- lines 10-29: the ant fold and the too-far contest --- *)

(* msgSet folded by sender id through the list-of-levels model, not
   through [Antlist]'s one-table fold. *)
let fold t checked =
  Antlist_model.to_antlist
    (M.fold
       (fun _ lst acc -> Antlist_model.ant acc (Antlist_model.of_antlist lst))
       checked
       (Antlist_model.singleton t.id))

let resolve_too_far t checked =
  let dmax = t.config.Config.dmax in
  let candidate = Antlist.truncate (fold t checked) (dmax + 2) in
  if Antlist.clear_size candidate < dmax + 2 then (candidate, false, [])
  else begin
    let cooldown = t.config.Config.contest_cooldown_enabled in
    let window = Priority.cooldown_window ~dmax in
    let checked, wins =
      S.fold
        (fun w (checked, wins) ->
          (* providers: senders whose list holds w clear at level Dmax and
             whose view names it *)
          let providers =
            M.fold
              (fun sender lst acc ->
                if
                  S.mem w (M.find sender t.msg_set).view && S.mem w (clear_level lst dmax)
                then S.add sender acc
                else acc)
              checked S.empty
          in
          let held =
            cooldown
            &&
            match M.find_opt w t.contest_hold with
            | Some (_, cut) -> S.disjoint providers cut
            | None -> false
          in
          if S.is_empty providers || held then (checked, wins)
          else begin
            let pw = Option.value (M.find_opt w t.table) ~default:Priority.lowest in
            (* the group defends only against foreign providers *)
            let pv = if S.disjoint providers t.view then group_priority t else t.own in
            if Priority.beats ~window:(Priority.contest_window ~dmax) pw pv then begin
              if cooldown then t.contest_hold <- M.add w (window, providers) t.contest_hold;
              (S.fold (fun s c -> M.add s (double s) c) providers checked, (w, providers) :: wins)
            end
            else begin
              if cooldown then t.oldness_hold <- max t.oldness_hold window;
              (checked, wins)
            end
          end)
        (clear_level candidate (dmax + 1))
        (checked, [])
    in
    (Antlist.truncate (fold t checked) (dmax + 1), true, wins)
  end

(* --- the admission gate's membership re-validation --- *)

let update_conflicts t =
  let window = Priority.cooldown_window ~dmax:t.config.Config.dmax in
  let aged =
    M.filter_map (fun _ (n, age) -> if age >= window then None else Some (n, age + 1)) t.conflict
  in
  let eligible v = clear_at_some_depth t.antlist v && M.find_opt v t.quarantine = Some 0 in
  t.conflict <-
    M.fold
      (fun u (m : msg) conflict ->
        if S.mem t.id m.view then M.remove u conflict
        else if S.mem u t.view || (eligible u && S.cardinal m.view >= 2) then
          let n = match M.find_opt u conflict with Some (n, _) -> n | None -> 0 in
          M.add u (n + 1, 0) conflict
        else conflict)
      t.msg_set aged

(* Admission evidence for [v]: it lists me clear itself, or a view-mate
   advertises it in its view. *)
let evident t v =
  (match M.find_opt v t.msg_set with Some m -> clear_at_some_depth m.antlist t.id | None -> false)
  || M.exists (fun u (m : msg) -> S.mem u t.view && S.mem v m.view) t.msg_set

(* Senders that have persistently excluded me for a full window. *)
let convictions t =
  let window = Priority.cooldown_window ~dmax:t.config.Config.dmax in
  M.fold (fun v (n, _) acc -> if n >= window then S.add v acc else acc) t.conflict S.empty

(* Convicted senders, plus view members without admission evidence for a
   full window (starved). *)
let inadmissible t =
  let window = Priority.cooldown_window ~dmax:t.config.Config.dmax in
  update_conflicts t;
  t.starve <-
    S.fold
      (fun v acc ->
        if Node_id.equal v t.id || evident t v then acc
        else M.add v (1 + Option.value (M.find_opt v t.starve) ~default:0) acc)
      t.view M.empty;
  M.fold (fun v age acc -> if age >= window then S.add v acc else acc) t.starve (convictions t)

(* --- compute() --- *)

(* Computes, over every reference node since the program started, in
   which joint admission rejected a sender, in which a contest cut its
   providers (and the list was refolded), and in which both happened:
   the test suite requires its draws to reach each. *)
type coverage = { mutable joint_rejections : int; mutable contest_cuts : int; mutable both : int }

let coverage = { joint_rejections = 0; contest_cuts = 0; both = 0 }

let tally ~joint ~cut =
  if joint then coverage.joint_rejections <- coverage.joint_rejections + 1;
  if cut then coverage.contest_cuts <- coverage.contest_cuts + 1;
  if joint && cut then coverage.both <- coverage.both + 1

let compute t =
  let c = t.config in
  let dmax = c.Config.dmax in
  (* The priority table, rebuilt from this round's reports: the larger
     oldness wins among gossip (the first sender keeps a tie), the own
     entry is never replaced by gossip, and a node's report of itself
     overrides.  The largest oldness heard is the solo node's clock. *)
  let clock = ref 0 in
  t.table <-
    M.fold
      (fun _ m table ->
        M.fold
          (fun v (p : Priority.t) table ->
            clock := max !clock p.oldness;
            match M.find_opt v table with
            | Some (q : Priority.t) when Node_id.equal v t.id || q.oldness >= p.oldness -> table
            | _ -> M.add v p table)
          m.priorities table)
      t.msg_set (M.singleton t.id t.own);
  M.iter
    (fun u m -> Option.iter (fun p -> t.table <- M.add u p t.table) (M.find_opt u m.priorities))
    t.msg_set;
  t.contest_hold <-
    M.filter_map (fun _ (k, cut) -> if k > 1 then Some (k - 1, cut) else None) t.contest_hold;
  let conflicted = if c.Config.admission_gate_enabled then inadmissible t else S.empty in
  let checked = check_each t in
  let checked, joint =
    if c.Config.joint_admission_enabled then joint_admission t checked else (checked, false)
  in
  let lst, too_far_conflict, contest_wins = resolve_too_far t checked in
  tally ~joint ~cut:(contest_wins <> []);
  let lst = Antlist.truncate lst (dmax + 1) in
  (* Line 30: quarantine counts down while an entry stays an unmarked
     member; marked entries stay armed at Dmax. *)
  t.quarantine <-
    Antlist.fold_entries lst ~init:M.empty ~f:(fun acc v _ mark ->
        let k =
          if Node_id.equal v t.id || not c.Config.quarantine_enabled then 0
          else if Mark.is_marked mark then dmax
          else match M.find_opt v t.quarantine with None -> dmax | Some k -> max 0 (k - 1)
        in
        M.add v k acc);
  let view =
    Antlist.fold_entries lst ~init:S.empty ~f:(fun acc v _ mark ->
        if
          mark = Mark.Clear
          && M.find_opt v t.quarantine = Some 0
          && (Node_id.equal v t.id
             || (not c.Config.admission_gate_enabled)
             || (S.mem v t.view || evident t v) && not (S.mem v conflicted))
        then S.add v acc
        else acc)
  in
  let old_view = t.view in
  t.antlist <- lst;
  t.view <- view;
  (* Oldness accrues only while alone and not merging (at least two
     distinct clear ids in the list), and not while a contest hold runs. *)
  let merging = S.cardinal (Antlist.clear_ids lst) >= 2 in
  (match c.Config.priority_mode with
  | Config.Oldness ->
      if t.oldness_hold > 0 then t.oldness_hold <- t.oldness_hold - 1
      else if not (S.cardinal view >= 2 || merging) then
        t.own <- Priority.bump (Priority.sync t.own !clock)
  | Config.Lowest_id -> ());
  t.table <-
    M.filter_map
      (fun v p ->
        if Node_id.equal v t.id then Some t.own
        else if Antlist.mem lst v then Some p
        else None)
      t.table;
  t.msg_set <- M.empty;
  {
    Grp_node.view_added = S.diff view old_view;
    view_removed = S.diff old_view view;
    too_far_conflict;
    contest_wins;
  }
