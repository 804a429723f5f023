(* Message-lineage DAG over a recorded trace.

   Every event of the trace is a node: each is about one node of the
   network and is emitted by that node's shard, so the DAG is identical
   for every --jobs/shards.  Edges:

   - [Msg_sent] with lineage [L]  ->  every event whose [cause] is [L]
     (the deliveries/losses of the broadcast's directed copies and the
     protocol decisions those deliveries fed);
   - last state-changing decision at node [N] (view change, mark,
     quarantine transition, merge acceptance, gate conviction, contest
     outcome)  ->  [N]'s next [Msg_sent]: a decision changes what the
     node broadcasts next — the edge that lets a backward slice cross
     compute boundaries and walk a whole livelock rotation.

   Event identity is canonical: events are sorted by
   [(time, kind rank, serialized JSONL line)] where the rank orders a
   tick causally — broadcasts, then deliveries/losses, then decisions.
   The rank matters for integer-tick traces (converge) where a
   broadcast and its directed copies share a timestamp: a plain
   alphabetical tiebreak would put [Msg_delivered] before its own
   [Msg_sent] and make cause edges point forward.  With the rank every
   edge points strictly backward (enforced in [add_edge] as a hard
   invariant, so a malformed trace can degrade the DAG but never cycle
   it), and any per-shard interleaving of the same event multiset
   builds the same arrays, ids and edges — [signature] is the tested
   contract. *)

type t = {
  times : float array;
  events : Trace.event array;
  lines : string array;  (* canonical JSONL, the tiebreak and dot label *)
  parents : int list array;  (* ascending *)
  children : int list array;  (* ascending *)
}

(* Causal order of event kinds inside one timestamp: the broadcast
   happens before its directed copies are delivered, which happen before
   the decisions those deliveries feed. *)
let kind_rank = function
  | Trace.Msg_sent _ -> 0
  | Trace.Msg_delivered _ | Trace.Msg_lost _ | Trace.Msg_dropped _ -> 1
  | _ -> 2

let build evs =
  let tagged =
    List.map (fun (t, ev) -> (t, Trace.Jsonl.to_string t ev, ev)) evs
  in
  let sorted =
    List.sort
      (fun (t1, l1, e1) (t2, l2, e2) ->
        match Float.compare t1 t2 with
        | 0 -> (
            match Int.compare (kind_rank e1) (kind_rank e2) with
            | 0 -> String.compare l1 l2
            | c -> c)
        | c -> c)
      tagged
  in
  let n = List.length sorted in
  let times = Array.make n 0.0 in
  let events = Array.make n (Trace.Msg_sent { src = 0; lid = -1 }) in
  let lines = Array.make n "" in
  List.iteri
    (fun i (t, line, ev) ->
      times.(i) <- t;
      events.(i) <- ev;
      lines.(i) <- line)
    sorted;
  let parents = Array.make n [] in
  let children = Array.make n [] in
  (* Only strictly backward edges: the invariant every walk relies on
     for termination.  A trace whose cause field points at a broadcast
     the canonical order places later (hand-edited, truncated at a
     rotation boundary) loses that edge rather than cycling the DAG. *)
  let add_edge p c =
    if p < c then begin
      parents.(c) <- p :: parents.(c);
      children.(p) <- c :: children.(p)
    end
  in
  let by_lid = Hashtbl.create 256 in
  Array.iteri
    (fun i ev ->
      let lid = Trace.lid_of ev in
      if lid >= 0 && not (Hashtbl.mem by_lid lid) then Hashtbl.add by_lid lid i)
    events;
  (* Decision -> next broadcast: the last state-changing decision of each
     node so far, consumed by that node's next Msg_sent.  Anything a node
     decides (view, marks, quarantine, merge, gate, contest) is reflected
     in its next broadcast, so all of them qualify; [Merge_attempt] is a
     pure observation and does not. *)
  let decision_node = function
    | Trace.View_changed { node; _ }
    | Trace.Quarantine_enter { node; _ }
    | Trace.Quarantine_admit { node; _ }
    | Trace.Mark_set { node; _ }
    | Trace.Mark_cleared { node; _ }
    | Trace.Merge_accepted { node; _ }
    | Trace.Gate_conviction { node; _ }
    | Trace.Contest_win { node; _ }
    | Trace.Contest_freeze { node; _ } ->
        Some node
    | _ -> None
  in
  let last_decision = Hashtbl.create 64 in
  Array.iteri
    (fun i ev ->
      let caused =
        match Trace.cause_of ev with
        | -1 -> false
        | c -> (
            match Hashtbl.find_opt by_lid c with
            | Some s ->
                add_edge s i;
                true
            | None -> false)
      in
      match decision_node ev with
      | Some node ->
          (* A decision with no recorded cause (a quarantine countdown
             tick, a timer-driven transition) is the evolution of the
             node's own state: link it from the node's preceding
             decision so backward walks don't dead-end on it. *)
          if not caused then begin
            match Hashtbl.find_opt last_decision node with
            | Some d -> add_edge d i
            | None -> ()
          end;
          Hashtbl.replace last_decision node i
      | None -> (
          match ev with
          | Trace.Msg_sent { src; _ } -> (
              match Hashtbl.find_opt last_decision src with
              | Some d -> add_edge d i
              | None -> ())
          | _ -> ()))
    events;
  Array.iteri (fun i l -> parents.(i) <- List.sort_uniq compare l) parents;
  Array.iteri (fun i l -> children.(i) <- List.sort_uniq compare l) children;
  { times; events; lines; parents; children }

let of_file path = build (Trace.Jsonl.load path)
let size t = Array.length t.times
let event t i = (t.times.(i), t.events.(i))
let parents t i = t.parents.(i)
let children t i = t.children.(i)

let ancestors_of t i =
  let seen = Hashtbl.create 64 in
  let rec go j =
    List.iter
      (fun p ->
        if not (Hashtbl.mem seen p) then begin
          Hashtbl.add seen p ();
          go p
        end)
      t.parents.(j)
  in
  go i;
  Hashtbl.fold (fun j () acc -> j :: acc) seen [] |> List.sort compare

let between t ~lo ~hi =
  let acc = ref [] in
  for i = size t - 1 downto 0 do
    if t.times.(i) >= lo && t.times.(i) <= hi then acc := i :: !acc
  done;
  !acc

let find_last t ?at p =
  let hi = match at with Some a -> a | None -> infinity in
  let best = ref None in
  Array.iteri
    (fun i ev -> if t.times.(i) <= hi && p t.times.(i) ev then best := Some i)
    t.events;
  !best

let proximate t i =
  match t.parents.(i) with [] -> None | ps -> Some (List.fold_left max min_int ps)

(* The minimal causal chain behind [i]: follow the proximate cause at
   each step, root first.  [stop_at] ends the walk once a step at or
   before that time has been included — the hook the livelock slice uses
   to cover exactly one rotation. *)
let chain t ?stop_at i =
  let stop = match stop_at with Some s -> s | None -> neg_infinity in
  let rec go acc j =
    if t.times.(j) <= stop then acc
    else match proximate t j with None -> acc | Some p -> go (p :: acc) p
  in
  go [ i ] i

(* The recurrence signature of a decision event: the provenance-free
   rendering (no times, no lineage ids — those are fresh every period).
   Message events are excluded: broadcasts recur in any steady state, so
   they carry no livelock signal. *)
let decision_signature t i =
  match t.events.(i) with
  | Trace.Msg_sent _ | Trace.Msg_delivered _ | Trace.Msg_lost _
  | Trace.Msg_dropped _ ->
      None
  | ev -> Some (Format.asprintf "%a" Trace.pp_event ev)

(* A livelock shows as the same protocol transition recurring — a view
   change, or a mark/quarantine/merge/contest decision for rotations
   whose views are already stable.  A single recurrence is not enough —
   one node can flip back and forth several times inside one rotation of
   the global state — so a candidate period is only accepted when the
   {e whole} decision sequence repeats: every decision inside the
   candidate window must have an identical twin one period earlier (same
   signature, same time modulo the period).  The smallest validated
   period is the rotation; when no candidate validates (trace too short
   to see two rotations), fall back to the most recent bare recurrence
   of the last transition. *)
let detect_period t =
  let ds =
    let acc = ref [] in
    for i = size t - 1 downto 0 do
      match decision_signature t i with
      | Some s -> acc := (i, s) :: !acc
      | None -> ()
    done;
    Array.of_list !acc
  in
  let n = Array.length ds in
  if n < 2 then None
  else begin
    let last, last_sig = ds.(n - 1) in
    let eps = 1e-6 in
    let twin_exists ~time ~signature =
      let found = ref false in
      for k = 0 to n - 1 do
        let id, s = ds.(k) in
        if
          (not !found)
          && Float.abs (t.times.(id) -. time) <= eps
          && String.equal s signature
        then found := true
      done;
      !found
    in
    let validates j =
      let period = t.times.(last) -. t.times.(fst ds.(j)) in
      period > eps
      &&
      let ok = ref true in
      for k = j + 1 to n - 1 do
        let id, s = ds.(k) in
        if
          !ok
          && not (twin_exists ~time:(t.times.(id) -. period) ~signature:s)
        then ok := false
      done;
      !ok
    in
    let validated = ref None
    and bare = ref None in
    for j = n - 2 downto 0 do
      if String.equal (snd ds.(j)) last_sig then begin
        if !bare = None then bare := Some (fst ds.(j));
        if !validated = None && validates j then validated := Some (fst ds.(j))
      end
    done;
    Option.map (fun p -> (p, last)) (match !validated with Some _ as v -> v | None -> !bare)
  end

let slice_period t =
  match detect_period t with
  | None -> None
  | Some (start_id, end_id) ->
      let ids = between t ~lo:t.times.(start_id) ~hi:t.times.(end_id) in
      Some (start_id, end_id, ids)

let to_dot t ids =
  let set = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace set i ()) ids;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph causal {\n  rankdir=TB;\n  node [shape=box,fontname=\"monospace\"];\n";
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf "  e%d [label=\"#%d t=%g %s\"];\n" i i t.times.(i)
           (Format.asprintf "%a" Trace.pp_event t.events.(i))))
    ids;
  List.iter
    (fun i ->
      List.iter
        (fun c ->
          if Hashtbl.mem set c then
            Buffer.add_string buf (Printf.sprintf "  e%d -> e%d;\n" i c))
        t.children.(i))
    ids;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let signature t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i line ->
      Buffer.add_string buf line;
      Buffer.add_string buf " p=[";
      Buffer.add_string buf (String.concat "," (List.map string_of_int t.parents.(i)));
      Buffer.add_string buf "]\n")
    t.lines;
  Buffer.contents buf

let pp_step ppf (t, i) =
  Format.fprintf ppf "[#%d] t=%g %a" i t.times.(i) Trace.pp_event t.events.(i)

let pp_chain ppf (t, ids) =
  List.iteri
    (fun depth i ->
      Format.fprintf ppf "%shop %d %a@," (String.make (2 * depth) ' ') depth
        pp_step (t, i))
    ids
