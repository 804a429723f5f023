module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names

(* Handles resolved once at node creation; on [Registry.null] every field
   is inert and each use below is one load + branch (the [Trace.null]
   discipline).  Derived work — diffing quarantine tables, counting view
   deltas — is additionally guarded by [m_on]. *)
type metrics = {
  m_on : bool;
  m_compute : Registry.Counter.t;
  m_cache_hit : Registry.Counter.t;
  m_cache_miss : Registry.Counter.t;
  m_ant_merge : Registry.Counter.t;
  m_restrict : Registry.Counter.t;
  m_q_enter : Registry.Counter.t;
  m_q_admit : Registry.Counter.t;
  m_conviction : Registry.Counter.t;
  m_starvation : Registry.Counter.t;
  m_contest_win : Registry.Counter.t;
  m_contest_freeze : Registry.Counter.t;
  m_view_add : Registry.Counter.t;
  m_view_remove : Registry.Counter.t;
  m_view_size : Registry.Hist.t;
  m_compute_ns : Registry.Timer.t;
  m_fold_ns : Registry.Timer.t;
  (* [grp_compute_ns] split into contiguous phases, each timed from the
     previous boundary ([Registry.Timer.lap]), so they sum to it. *)
  m_ingest_ns : Registry.Timer.t;
  m_priority_ns : Registry.Timer.t;
  m_admission_ns : Registry.Timer.t;
  m_fold_phase_ns : Registry.Timer.t;
  m_contest_ns : Registry.Timer.t;
  m_update_ns : Registry.Timer.t;
  m_message_ns : Registry.Timer.t;
}

let metrics_of reg =
  {
    m_on = Registry.enabled reg;
    m_compute = Registry.counter reg Names.grp_compute_total;
    m_cache_hit = Registry.counter reg Names.grp_compute_cache_hit_total;
    m_cache_miss = Registry.counter reg Names.grp_compute_cache_miss_total;
    m_ant_merge = Registry.counter reg Names.grp_ant_merge_total;
    m_restrict = Registry.counter reg Names.grp_restrict_clear_total;
    m_q_enter = Registry.counter reg Names.grp_quarantine_enter_total;
    m_q_admit = Registry.counter reg Names.grp_quarantine_admit_total;
    m_conviction = Registry.counter reg Names.grp_gate_conviction_total;
    m_starvation = Registry.counter reg Names.grp_gate_starvation_total;
    m_contest_win = Registry.counter reg Names.grp_contest_win_total;
    m_contest_freeze = Registry.counter reg Names.grp_contest_freeze_total;
    m_view_add = Registry.counter reg Names.grp_view_add_total;
    m_view_remove = Registry.counter reg Names.grp_view_remove_total;
    m_view_size = Registry.histogram reg Names.grp_view_size;
    m_compute_ns = Registry.timer reg Names.grp_compute_ns;
    m_fold_ns = Registry.timer reg Names.grp_fold_ns;
    m_ingest_ns = Registry.timer reg Names.grp_compute_ingest_ns;
    m_priority_ns = Registry.timer reg Names.grp_compute_priority_ns;
    m_admission_ns = Registry.timer reg Names.grp_compute_admission_ns;
    m_fold_phase_ns = Registry.timer reg Names.grp_compute_fold_ns;
    m_contest_ns = Registry.timer reg Names.grp_compute_contest_ns;
    m_update_ns = Registry.timer reg Names.grp_compute_update_ns;
    m_message_ns = Registry.timer reg Names.grp_compute_message_ns;
  }

(* A disabled registry hands out the same inert handles for every name,
   so the nodes created on it share one record. *)
let null_metrics = metrics_of Registry.null

type t = {
  id : Node_id.t;
  config : Config.t;
  trace : Trace.t;
  metrics : metrics;
  mutable antlist : Antlist.t;
  (* Raw arrival buffer: messages land in [inbox.(0 .. inbox_n - 1)] in
     order, duplicates and all, at zero allocation per copy (amortized —
     the array doubles).  At the top of [compute], [ingest] writes the
     buffer into the domain's sender table, the last message per sender
     winning.  Every other slot holds [no_msg], so the buffer keeps alive
     only the messages no compute has read yet. *)
  mutable inbox : Message.t array;
  mutable inbox_n : int;
  (* Provenance lineage of each inbox entry, parallel to [inbox].
     Allocated and written only under an enabled trace sink (the sink of
     a node never changes), where it is the only reader; untraced, it
     stays the empty array. *)
  mutable inbox_lid : int array;
  mutable quarantine : int Node_id.Map.t;
  mutable view : Node_id.Set.t;
  (* The priority table: node ids, strictly increasing, and their known
     priorities, parallel.  The arrays are never written again, so a
     message may share them.  A full compute builds the next table in the
     domain's scratch ([merge_priorities]) and [update_priorities] copies
     the surviving entries out. *)
  mutable prio_ids : Node_id.t array;
  mutable prio_vals : Priority.t array;
  mutable own_priority : Priority.t;
  (* Membership re-validation testimony: sender -> (consecutive exclusion
     reports, computes since the last one).  See [update_conflicts]. *)
  mutable conflict : (int * int) Node_id.Map.t;
  (* Membership re-validation, absence side: view member -> consecutive
     computes without admission evidence.  See [compute]. *)
  mutable starve : int Node_id.Map.t;
  (* Too-far contest cooldown: far node -> (computes remaining, providers
     its last win here cut).  While held, the far node may keep winning
     against the same providers but not displace a disjoint pairing.  See
     [resolve_too_far]. *)
  mutable contest_hold : (int * Node_id.Set.t) Node_id.Map.t;
  (* Computes during which the own oldness is frozen after this node's
     priority defended a pairing in a too-far contest. *)
  mutable oldness_hold : int;
  (* Compute elision (DESIGN.md Section 9): the last full compute if it
     left the state it reads unchanged; per node, as [Sharded] runs nodes
     on several domains.  [restricts]: lists it accepted. *)
  mutable fixpoint : fixpoint;
  mutable restricts : int;
  (* The last [make_message] result, [msg_fresh] while still current. *)
  mutable last_msg : Message.t;
  mutable msg_fresh : bool;
}

and step_info = {
  view_added : Node_id.Set.t;
  view_removed : Node_id.Set.t;
  too_far_conflict : bool;
  contest_wins : (Node_id.t * Node_id.Set.t) list;
}

(* A fixpoint compute's result and the msgSet of the last compute that
   repeated it, in sender id order.  [fp_prio_free]: its list, view and
   quarantine decisions read no priority, so msgSets that differ from
   [fp_msgs] only in their priorities repeat them too. *)
and fixpoint =
  | No_fixpoint
  | Fixpoint of {
      fp_msgs : Message.t array;
      fp_step : step_info;
      fp_prio_free : bool;
    }

let create ~config ?(trace = Trace.null) ?(metrics = Registry.null) id =
  let own_priority = Priority.initial id in
  let antlist = Antlist.singleton id and view = Node_id.Set.singleton id in
  let prio_ids = [| id |] and prio_vals = [| own_priority |] in
  {
    id;
    config;
    trace;
    metrics = (if Registry.enabled metrics then metrics_of metrics else null_metrics);
    antlist;
    inbox = [||];
    inbox_n = 0;
    inbox_lid = [||];
    quarantine = Node_id.Map.singleton id 0;
    view;
    prio_ids;
    prio_vals;
    own_priority;
    conflict = Node_id.Map.empty;
    starve = Node_id.Map.empty;
    contest_hold = Node_id.Map.empty;
    oldness_hold = 0;
    fixpoint = No_fixpoint;
    restricts = 0;
    (* What [make_message] builds for a fresh node. *)
    last_msg =
      Message.make ~sender:id ~antlist ~priority_ids:prio_ids ~priorities:prio_vals
        ~group_priority:own_priority ~view;
    msg_fresh = true;
  }

let id t = t.id
let view t = t.view
let antlist t = t.antlist
let own_priority t = t.own_priority
let quarantine_of t v = Node_id.Map.find_opt v t.quarantine
let quarantines t = t.quarantine

(* The four fields are immutable values the node replaces, never mutates,
   so a snapshot shares them.  [compute] keeps the list and view
   physically when they are unchanged, and an elided compute keeps the
   quarantine table too, so the [==] tests below are the common case. *)
type state = {
  st_id : Node_id.t;
  st_antlist : Antlist.t;
  st_view : Node_id.Set.t;
  st_quarantine : int Node_id.Map.t;
}

let state t =
  { st_id = t.id; st_antlist = t.antlist; st_view = t.view; st_quarantine = t.quarantine }

let same_state a b =
  Node_id.equal a.st_id b.st_id
  && Antlist.equal a.st_antlist b.st_antlist
  && (a.st_view == b.st_view || Node_id.Set.equal a.st_view b.st_view)
  && (a.st_quarantine == b.st_quarantine
     || Node_id.Map.equal Int.equal a.st_quarantine b.st_quarantine)

let quiet_rounds (config : Config.t) = config.dmax + 5

(* Index of [v] in the strictly increasing slice [ids.(lo) .. ids.(hi - 1)],
   or [-(p + 1)] when it is absent and belongs at index [p]. *)
let rec search (ids : Node_id.t array) v lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = Node_id.compare ids.(mid) v in
    if c = 0 then mid else if c < 0 then search ids v (mid + 1) hi else search ids v lo mid

let known_priority t v =
  let i = search t.prio_ids v 0 (Array.length t.prio_ids) in
  if i < 0 then None else Some t.prio_vals.(i)

let pending_senders t =
  let acc = ref Node_id.Set.empty in
  for i = 0 to t.inbox_n - 1 do
    acc := Node_id.Set.add t.inbox.(i).Message.sender !acc
  done;
  !acc

(* The minimum over the view members' known priorities: a walk of the
   table, which allocates nothing. *)
let group_priority t =
  let best = ref t.own_priority in
  for i = 0 to Array.length t.prio_ids - 1 do
    if Node_id.Set.mem t.prio_ids.(i) t.view then best := Priority.min t.prio_vals.(i) !best
  done;
  !best

(* What an inbox slot or a scratch message slot holds when it holds no
   message: a shared constant, so an unused slot keeps nothing alive. *)
let no_msg =
  Message.make ~sender:(-1) ~antlist:Antlist.empty ~priority_ids:[||] ~priorities:[||]
    ~group_priority:Priority.lowest ~view:Node_id.Set.empty

(* [lid] is a required labelled int on purpose: an optional argument
   would box a [Some] per call and break the zero-alloc receive pin. *)
let receive_lid t ~lid msg =
  if not (Node_id.equal msg.Message.sender t.id) then begin
    let cap = Array.length t.inbox and tracing = Trace.enabled t.trace in
    if t.inbox_n = cap then begin
      let ncap = if cap = 0 then 8 else 2 * cap in
      let a = Array.make ncap no_msg in
      Array.blit t.inbox 0 a 0 cap;
      t.inbox <- a;
      if tracing then begin
        let l = Array.make ncap (-1) in
        Array.blit t.inbox_lid 0 l 0 cap;
        t.inbox_lid <- l
      end
    end;
    t.inbox.(t.inbox_n) <- msg;
    if tracing then t.inbox_lid.(t.inbox_n) <- lid;
    t.inbox_n <- t.inbox_n + 1
  end

let receive t msg = receive_lid t ~lid:(-1) msg

(* Per-domain scratch of compute.  A domain runs one compute at a time
   and nothing here outlives it, so the buffers are shared by every node
   the domain runs: per-node buffers would grow the live heap with the
   network.
   - [senders]/[msgs]/[standing]/[lists]/[rejected]: the sender table,
     this compute's msgSet in id order, as [ingest] writes it: each
     sender, its message, how its list holds the computing node
     ([standing_of_list]), the list admission leaves it (lines 1-9 of
     the paper's compute, the contest cuts included) and whether that
     list is a marked singleton replacing a rejected one.  Every
     per-sender step of compute reads and writes these arrays by index.
   - [lids]: the lineage of each sender's message, written only under an
     enabled trace sink, where it is the only reader ([lid_of_sender]).
   - [tab_ids]/[tab_src]/[table_n]: the priority table the merge builds
     ([merge_priorities]): ids, and where each one's priority lives —
     [own] for the node's own entry, else [(k lsl 32) lor j] for entry [j]
     of [msgs.(k)].  Plain ints, so building the table stores no pointer;
     [heads] are the merge's per-sender read positions.
   - [ints]: a gather buffer for the cross check's reach sets.
   - [prio_read]: this compute's list, view or quarantine decision read
     a priority ([too_far_priority], or [cross_check] ordering two or
     more fresh senders).
   Buffers grow to the largest need seen, never shrink, and
   [release] drops their references into a compute's messages, so
   between computes they keep nothing else alive. *)
type scratch = {
  mutable senders : Node_id.t array;
  mutable msgs : Message.t array;
  mutable standing : int array;
  mutable lists : Antlist.t array;
  mutable rejected : bool array;
  mutable lids : int array;
  mutable n_senders : int;
  mutable tab_ids : Node_id.t array;
  mutable tab_src : int array;
  mutable table_n : int;
  mutable heads : int array;
  mutable ints : int array;
  mutable prio_read : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        senders = [||];
        msgs = [||];
        standing = [||];
        lists = [||];
        rejected = [||];
        lids = [||];
        n_senders = 0;
        tab_ids = [||];
        tab_src = [||];
        table_n = 0;
        heads = [||];
        ints = [||];
        prio_read = false;
      })

let grown a n fill = if Array.length a >= n then a else Array.make n fill

(* Room for [n] senders in every array of the sender table. *)
let grow_senders s n =
  if Array.length s.senders < n then begin
    s.senders <- Array.make n 0;
    s.msgs <- Array.make n no_msg;
    s.standing <- Array.make n 0;
    s.lists <- Array.make n Antlist.empty;
    s.rejected <- Array.make n false;
    s.lids <- Array.make n (-1)
  end

(* How the msgSet compares with the fixpoint's: the same senders with
   physically the same messages, or with physically the same lists and
   views. *)
type repeat = Same_messages | Same_lists | Changed

let rec repeat_from s (prev : Message.t array) k r =
  if k = s.n_senders then r
  else
    let p = prev.(k) and msg = s.msgs.(k) in
    if p == msg then repeat_from s prev (k + 1) r
    else if
      Node_id.equal p.Message.sender msg.Message.sender
      && p.Message.antlist == msg.Message.antlist
      && p.Message.view == msg.Message.view
    then repeat_from s prev (k + 1) Same_lists
    else Changed

(* Write the arrival buffer into the empty sender table, oldest first, so
   a newer message from a sender overwrites the older one (the
   one-message channel).  A new sender is inserted in id order; the
   runners deliver in ascending sender order, so that is mostly an
   append.  The read slots are then reset to [no_msg], so the buffer
   keeps no consumed message alive.  Allocates nothing once the table
   has grown. *)
let ingest t s =
  let tracing = Trace.enabled t.trace in
  grow_senders s t.inbox_n;
  for i = 0 to t.inbox_n - 1 do
    let msg = t.inbox.(i) and n = s.n_senders in
    let k = search s.senders msg.Message.sender 0 n in
    let k =
      if k >= 0 then k
      else begin
        let k = -k - 1 in
        Array.blit s.senders k s.senders (k + 1) (n - k);
        Array.blit s.msgs k s.msgs (k + 1) (n - k);
        if tracing then Array.blit s.lids k s.lids (k + 1) (n - k);
        s.senders.(k) <- msg.Message.sender;
        s.n_senders <- n + 1;
        k
      end
    in
    s.msgs.(k) <- msg;
    if tracing then s.lids.(k) <- t.inbox_lid.(i)
  done;
  Array.fill t.inbox 0 t.inbox_n no_msg;
  t.inbox_n <- 0;
  match t.fixpoint with
  | Fixpoint fp when Array.length fp.fp_msgs = s.n_senders ->
      repeat_from s fp.fp_msgs 0 Same_messages
  | Fixpoint _ | No_fixpoint -> Changed

(* Lineage of the message [ingest] kept from [sender] this compute; -1
   when it sent nothing.  Trace-branch only. *)
let lid_of_sender s sender =
  let k = search s.senders sender 0 s.n_senders in
  if k < 0 then -1 else s.lids.(k)

(* The priority table is rebuilt from scratch out of the current round's
   reports: among gossiped entries the larger oldness wins (oldness only
   grows over a node's uncorrupted lifetime, so larger means fresher), but
   a report of a node by itself is authoritative and overrides gossip
   outright.  Keeping the table across rounds — or trusting the oldness
   order unconditionally — is not self-stabilizing: after a reset (or an
   arbitrary initial state) the node restarts at oldness 0 and every
   neighbor's remembered pre-reset entry looks fresher forever, while
   gossip loops re-infect any node that corrects itself.  A rebuilt table
   with authoritative origins flushes stale entries within a network
   radius of rounds.  Returns the largest oldness heard, which is the
   Lamport clock the node syncs its own counter to while solo.

   One k-way walk over the senders' id-sorted arrays and the own entry
   builds the table in id order.  Each step takes the smallest unread id
   and consumes every sender entry that names it, in msgSet order: the
   larger oldness wins and the earlier sender keeps a tie; gossip never
   replaces the own entry; a sender's report about itself overrides
   gossip.  A step costs one pass over the senders' read positions, so a
   table the senders mostly share costs about one visit per entry. *)
let own = -1

(* Double the table arrays, which then fit the most distinct ids seen. *)
let grow_table s n =
  let cap = Int.max 16 (2 * n) in
  let ids = Array.make cap 0 and src = Array.make cap own in
  Array.blit s.tab_ids 0 ids 0 n;
  Array.blit s.tab_src 0 src 0 n;
  s.tab_ids <- ids;
  s.tab_src <- src

let merge_priorities s ~me =
  let k = s.n_senders in
  s.heads <- grown s.heads k 0;
  let heads = s.heads in
  let next = ref me in
  for i = 0 to k - 1 do
    heads.(i) <- 0;
    let ids = s.msgs.(i).Message.priority_ids in
    if Array.length ids > 0 && ids.(0) < !next then next := ids.(0)
  done;
  let clock = ref 0 and n = ref 0 and me_left = ref true in
  while !next <> max_int do
    let v = !next in
    let after = ref (if !me_left && me > v then me else max_int) in
    let best = ref own and best_oldness = ref 0 and self = ref own in
    for i = 0 to k - 1 do
      let msg = s.msgs.(i) in
      let ids = msg.Message.priority_ids in
      let h = heads.(i) in
      if h < Array.length ids then begin
        let u = ids.(h) in
        if u = v then begin
          let o = msg.Message.priorities.(h).Priority.oldness in
          if o > !clock then clock := o;
          if msg.Message.sender = v then self := (i lsl 32) lor h
          else if !best = own || o > !best_oldness then begin
            best := (i lsl 32) lor h;
            best_oldness := o
          end;
          heads.(i) <- h + 1;
          if h + 1 < Array.length ids && ids.(h + 1) < !after then after := ids.(h + 1)
        end
        else if u < !after then after := u
      end
    done;
    if v = me then me_left := false;
    if !n = Array.length s.tab_ids then grow_table s !n;
    s.tab_ids.(!n) <- v;
    s.tab_src.(!n) <- (if !self <> own then !self else if v = me then own else !best);
    incr n;
    next := !after
  done;
  s.table_n <- !n;
  !clock

(* The priority of table slot [i]: the own entry's is [own_priority]. *)
let table_priority s ~own_priority i =
  let src = s.tab_src.(i) in
  if src = own then own_priority
  else s.msgs.(src lsr 32).Message.priorities.(src land 0xFFFF_FFFF)

(* [group_priority] on the table being built. *)
let table_group_priority t s =
  let best = ref t.own_priority in
  for i = 0 to s.table_n - 1 do
    if Node_id.Set.mem s.tab_ids.(i) t.view then
      best := Priority.min (table_priority s ~own_priority:t.own_priority i) !best
  done;
  !best

(* The priorities of the first [n] table slots as an exact-size array,
   the own entry's [own_priority]. *)
let table_priorities s ~own_priority n =
  let vals = Array.make n own_priority in
  for i = 0 to n - 1 do
    if s.tab_src.(i) <> own then vals.(i) <- table_priority s ~own_priority i
  done;
  vals

(* How a sender's raw list holds me, from one binary search per level,
   packed in an int: bits 0-1 the severity of my level-1 entry (3: none
   there), bit 2 set when I appear Clear at some depth (raw lists may
   repeat an id across levels), bits 4.. one plus the position of my
   closest occurrence (0: absent).  [my_mark], [good_list], the admission
   evidence and the cross check's split horizon all read it;
   [fill_standings] adds bit 3 for a sender in my view. *)
let standing_of_list me lst =
  let st = ref 3 in
  for pos = 0 to Antlist.size lst - 1 do
    match Antlist.mark_at lst pos me with
    | None -> ()
    | Some mark ->
        if !st lsr 4 = 0 then st := !st lor ((pos + 1) lsl 4);
        if mark = Mark.Clear then st := !st lor 4;
        if pos = 1 then
          st :=
            (!st land lnot 3)
            lor match mark with Mark.Clear -> 0 | Mark.Single -> 1 | Mark.Double -> 2
  done;
  !st

let clear_somewhere st = st land 4 <> 0
let closest_pos st = (st lsr 4) - 1

(* How the sender acknowledges me: my level-1 mark, else Clear when it
   lists me Clear deeper, else not at all. *)
let my_mark st =
  match st land 3 with
  | 0 -> Some Mark.Clear
  | 1 -> Some Mark.Single
  | 2 -> Some Mark.Double
  | _ -> if clear_somewhere st then Some Mark.Clear else None

(* Every sender's standing, over the sender table. *)
let fill_standings t s =
  for k = 0 to s.n_senders - 1 do
    s.standing.(k) <-
      (standing_of_list t.id s.msgs.(k).Message.antlist
      lor if Node_id.Set.mem s.senders.(k) t.view then 8 else 0)
  done

let sender_in_view st = st land 8 <> 0

(* Some sender advertises [v] in its view — a view-mate only, when
   [mates]. *)
let rec advertised s ~mates v k =
  k < s.n_senders
  && ((((not mates) || sender_in_view s.standing.(k))
      && Node_id.Set.mem v s.msgs.(k).Message.view)
     || advertised s ~mates v (k + 1))

(* Forget this compute's messages, lists and priorities, once the table
   has been copied out. *)
let release s =
  Array.fill s.msgs 0 s.n_senders no_msg;
  Array.fill s.lists 0 s.n_senders Antlist.empty;
  s.n_senders <- 0;
  s.table_n <- 0

let priority_table ~me ~own_priority msgs =
  let s = Domain.DLS.get scratch_key in
  let k = Array.length msgs in
  grow_senders s k;
  Array.blit msgs 0 s.msgs 0 k;
  s.n_senders <- k;
  let clock = merge_priorities s ~me in
  let n = s.table_n in
  let ids = Array.sub s.tab_ids 0 n and vals = table_priorities s ~own_priority n in
  release s;
  (ids, vals, clock)

(* [v] has a Clear entry at level [pos] of [lst]. *)
let clear_at lst pos v =
  match Antlist.mark_at lst pos v with Some Mark.Clear -> true | _ -> false

(* [v] has a Clear entry at some depth of [lst] (any occurrence, not just
   the closest: raw lists may repeat an id across levels). *)
let rec clear_from lst v pos =
  pos < Antlist.size lst && (clear_at lst pos v || clear_from lst v (pos + 1))

let clear_anywhere lst v = clear_from lst v 0

let clear_level_ids lst i =
  Antlist.fold_level lst i ~init:Node_id.Set.empty ~f:(fun acc id mark ->
      if mark = Mark.Clear then Node_id.Set.add id acc else acc)

(* [st] is the sender's standing ([standing_of_list]). *)
let good_list_st t ~st ~sender lst =
  (* The sender's list is usable when it acknowledges me: unmarked or
     single-marked among its neighbors (list.1, the triple handshake), or —
     beyond the paper's letter — Clear at any depth: then the sender
     already computes me as a group member over symmetric paths, and
     replacing its list by a single-marked stub would evict an established
     member whenever mobility creates a fresh direct link between two
     group-mates (DESIGN.md Section 5). *)
  let self_ok = st land 3 <= 1 || clear_somewhere st in
  self_ok
  && Antlist.level_size lst 0 = 1
  && Antlist.fold_level lst 0 ~init:false ~f:(fun _ id _ -> Node_id.equal id sender)
  && Antlist.clear_size lst <= t.config.Config.dmax + 1
  && not (Antlist.has_empty_level lst)

let good_list t ~sender lst = good_list_st t ~st:(standing_of_list t.id lst) ~sender lst

(* compatibleList relates established group extents (Proposition 13's
   setting has stabilized groups, where lists and groups coincide).  During
   convergence, antlists are speculative supersets of the groups, so the
   extents are measured over established nodes only: the receiver's side
   over members of its own view and of the views its current senders
   advertise; the sender's side over the members of the sender's advertised
   view that are foreign to the receiver.  Speculative tails are policed by
   the too-far contest and by joint admission instead (DESIGN.md
   Section 5). *)

(* Established nodes: my view plus every view advertised in msgSet
   ([s] filled by [fill_standings]). *)
let established t s v = Node_id.Set.mem v t.view || advertised s ~mates:false v 0

(* Extent of my established group: farthest established clear node in my
   current list. *)
let established_extent t s =
  Antlist.fold_entries t.antlist ~init:0 ~f:(fun acc v pos mark ->
      if mark = Mark.Clear && pos > acc && established t s v then pos else acc)

(* Extent of the sender's established group beyond mine: farthest of the
   sender's view members, at its position in the sender's list, that I do
   not already hold (goodList forces the sender to echo me and my members
   back; counting that echo would inflate the estimate). *)
let foreign_view_extent t ~sender_view lst =
  (* Marked entries count as known too: they only occur at levels 0-1 of my
     list, i.e. they are physically adjacent, so a sender echoing them back
     is not stretching the merge.  One max-tracking pass; -1 encodes "no
     foreign member" without materializing the position list. *)
  let best =
    Antlist.fold_entries lst ~init:(-1) ~f:(fun best v pos mark ->
        if
          mark = Mark.Clear
          && Node_id.Set.mem v sender_view
          && (not (Node_id.equal v t.id))
          && not (Antlist.mem t.antlist v)
        then max best pos
        else best)
  in
  if best < 0 then None else Some best

(* [env] memoizes the sender-independent half of the admission tests for
   one compute, the same for all of the round's senders, each part on
   first use: the extent of my established group ([-1]: not yet), and
   the established Clear members of each of my levels [1 .. extent]
   that the shortcut compares with a sender's level 1 ([[||]]: not
   yet). *)
type env = { mutable extent : int; mutable established_levels : Node_id.Set.t array }

let compatible_env () = { extent = -1; established_levels = [||] }

let env_extent t s env =
  if env.extent < 0 then env.extent <- established_extent t s;
  env.extent

let established_level t s env i =
  if Array.length env.established_levels = 0 then
    env.established_levels <-
      Array.init (env_extent t s env + 1) (fun i ->
          Node_id.Set.filter (established t s) (clear_level_ids t.antlist i));
  env.established_levels.(i)

let compatible_list_env t s ~env ~sender_view lst =
  let dmax = t.config.Config.dmax in
  match foreign_view_extent t ~sender_view lst with
  | None -> true (* nothing new: accepting cannot stretch the group *)
  | Some q ->
      let p = env_extent t s env in
      if p + q + 1 <= dmax then true
      else if not t.config.Config.compat_shortcut_enabled then false
      else
        (* Shortcut disjunct of Function compatibleList / Proposition 13:
           the sender is adjacent to the whole level i of our list, so the
           far side of our group reaches it in p-i+1+q hops and the near
           side in i/2+q+1 hops; both must fit (see the .mli note). *)
        let list1 = Antlist.level_ids lst 1 in
        let rec scan i =
          if i > p then false
          else
            let li = established_level t s env i in
            ((not (Node_id.Set.is_empty li))
            && Node_id.Set.subset li list1
            && p - i + 1 + q <= dmax
            && (i / 2) + q + 1 <= dmax)
            || scan (i + 1)
        in
        scan 1

(* Between computes the sender table is empty. *)
let compatible_list t ~sender_view lst =
  compatible_list_env t (Domain.DLS.get scratch_key) ~env:(compatible_env ()) ~sender_view lst

(* Lines 1-9 of compute(): strip link-local marks, then replace unusable
   lists by a single-marked sender (goodList) and incompatible ones by a
   double-marked sender (compatibleList). *)
(* A sender is a group-mate when it is in our view (paper line 6) or when
   its advertised view and ours share an established member beyond the two
   of us — evidence that we already belong to the same group even while a
   direct-link rejection is in force.  Group-mates bypass compatibleList
   and joint admission; without the bypass a conservative direct rejection
   can permanently desynchronize the views of two members of one group
   (DESIGN.md Section 5). *)
let same_group t sender (msg : Message.t) =
  Node_id.Set.mem sender t.view
  || Node_id.Set.exists
       (fun v ->
         (not (Node_id.equal v t.id))
         && (not (Node_id.equal v sender))
         && Node_id.Set.mem v t.view)
       msg.view

(* Replace sender [k]'s list by the sender marked [mark]. *)
let reject s k mark =
  s.lists.(k) <- Antlist.singleton_marked s.senders.(k) mark;
  s.rejected.(k) <- true

let check_each_incoming t s =
  let tracing = Trace.enabled t.trace in
  let env = compatible_env () in
  t.restricts <- 0;
  for k = 0 to s.n_senders - 1 do
    let sender = s.senders.(k) and msg = s.msgs.(k) in
    if tracing && not (Node_id.Set.mem sender t.view) then
      Trace.emit t.trace
        (Trace.Merge_attempt { node = t.id; sender; cause = lid_of_sender s sender });
    (* Admission tests run on the raw list: the sender's marked level-1
       entries are its physical neighbors (in handshake or rejected), and
       that adjacency evidence is what the shortcut subset test needs.
       Marks are stripped only before the ant fold (line 2 of the paper's
       compute), so they still never propagate. *)
    let raw = msg.Message.antlist in
    (* How does the sender acknowledge me?  Marked entries live in its
       level 1; a Clear occurrence at any depth means it already computes
       me as a group member over symmetric paths, which is as good an
       acknowledgment as the level-1 handshake (DESIGN.md Section 5). *)
    let st = s.standing.(k) in
    let incompatible () =
      (not (same_group t sender msg))
      && not (compatible_list_env t s ~env ~sender_view:msg.Message.view raw)
    in
    match my_mark st with
    | None ->
        (* The sender does not list me: asymmetric link, handshake step. *)
        reject s k Mark.Single
    | Some Mark.Double ->
        (* The sender rejected me.  If I reject it too, exactly one side
           may keep the double mark, otherwise both alternate between
           double and single forever (the (D,D) <-> (S,S) 2-cycle); the
           lower id is the dominant rejector, the other defers to the
           single mark of Proposition 3.  DESIGN.md Section 5. *)
        reject s k
          (if Node_id.compare t.id sender < 0 && incompatible () then Mark.Double
           else Mark.Single)
    | Some Mark.Clear | Some Mark.Single ->
        if not (good_list_st t ~st ~sender raw) then reject s k Mark.Single
        else if incompatible () then reject s k Mark.Double
        else begin
          if tracing && not (Node_id.Set.mem sender t.view) then
            Trace.emit t.trace
              (Trace.Merge_accepted { node = t.id; sender; cause = lid_of_sender s sender });
          Registry.Counter.incr t.metrics.m_restrict;
          t.restricts <- t.restricts + 1;
          s.lists.(k) <- Antlist.strip_marked ~keep:t.id raw;
          s.rejected.(k) <- false
        end
  done

(* The first [k] ids of [buf], sorted and deduplicated, as a fresh array. *)
let sorted_ids buf k =
  let a = Array.sub buf 0 k in
  Array.sort Node_id.compare a;
  let w = ref 0 in
  for r = 0 to k - 1 do
    if !w = 0 || not (Node_id.equal a.(!w - 1) a.(r)) then begin
      a.(!w) <- a.(r);
      incr w
    end
  done;
  if !w = k then a else Array.sub a 0 !w

(* Two sorted id arrays share no id. *)
let rec disjoint (a : Node_id.t array) (b : Node_id.t array) i j =
  i >= Array.length a
  || j >= Array.length b
  ||
  let c = Node_id.compare a.(i) b.(j) in
  c <> 0 && if c < 0 then disjoint a b (i + 1) j else disjoint a b i (j + 1)

(* Joint admission: compatibleList only relates each sender to the local
   node, so a node between two groups can pass both tests and bridge them
   into a union whose diameter violation is invisible to it (both sides are
   within Dmax of the bridge).  Lists whose foreign parts are disjoint are
   only jointly acceptable when their extents meet across the local node:
   ext1 + ext2 + 2 <= Dmax.  Established senders (already in the view) are
   never rejected here — they are the group compatibleList protects — and
   among new senders the oldest group is kept (DESIGN.md Section 5). *)
let cross_check t s =
  (* Senders already rejected by the individual checks are not being
     admitted, so they neither need joint clearance nor may veto anybody
     else. *)
  let in_view = ref [] and fresh = ref [] in
  for k = s.n_senders - 1 downto 0 do
    if not s.rejected.(k) then
      if same_group t s.senders.(k) s.msgs.(k) then in_view := k :: !in_view
      else fresh := k :: !fresh
  done;
  match !fresh with
  | [] ->
      (* Nothing new to vet, and the in-view foreign parts are never
         looked at.  In steady state every sender is a mate, so this
         skips the whole joint-extent machinery on the common path. *)
      ()
  | fresh ->
  let my_ids = Node_id.Set.add t.id t.view in
  (* The foreign group a sender brings: the clear members of its own view,
     minus the established members we already hold.  "Hold" means the
     view, not the whole clear list: after a collapsed merge the list
     still spans the entire neighborhood (everything really is within
     Dmax+1 hops of a bridge node), and measuring foreignness against it
     leaves no foreign part at all — blinding the extent test exactly
     when the next admission race begins (the 6-path bridge livelock).
     Speculative list entries outside the sender's view are ignored
     here; individual checks and the too-far contest police those.

     Reach: everything the sender's raw list vouches a usable connection
     to — the overlap test joins two sides that meet anywhere off-board,
     not only through me.  Single-marked entries count (a handshake in
     progress is a live adjacency); double-marked ones do not (a rejected
     edge carries no group path).  Extent: established (view, clear)
     members only, so speculative tails do not block growth.

     Split horizon for the overlap test: an entry whose depth in the
     sender's list is explainable as a route through me (the sender's
     level of me plus my own level of the entry) may be nothing but the
     echo of my previous advertisement — after a failed bridge, the two
     sides would keep "meeting" through such ghosts for a round and
     bypass the joint extent check forever (the lockstep grid3x3 cycle).
     Genuinely off-board meetings are strictly shorter than the me-route
     and survive the filter.

     Reach and extent are accumulated in the one pass over the sender's
     entries, the reach ids gathered into the scratch and kept as a
     sorted array; -1 encodes "no established foreign member". *)
  let foreign_part k =
    let msg = s.msgs.(k) in
    let lst = msg.Message.antlist in
    let me_pos = closest_pos s.standing.(k) in
    let echo v pos =
      me_pos >= 0
      &&
      let lv = Antlist.closest_undoubled t.antlist v in
      lv >= 0 && pos >= me_pos + lv
    in
    let total = ref 0 in
    for i = 0 to Antlist.size lst - 1 do
      total := !total + Antlist.level_size lst i
    done;
    s.ints <- grown s.ints !total 0;
    let buf = s.ints in
    let n = ref 0 and ext = ref (-1) in
    Antlist.fold_entries lst ~init:() ~f:(fun () v pos mark ->
        if mark <> Mark.Double && not (Node_id.Set.mem v my_ids) then begin
          if not (echo v pos) then begin
            buf.(!n) <- v;
            incr n
          end;
          if mark = Mark.Clear && Node_id.Set.mem v msg.Message.view then
            ext := max !ext pos
        end);
    if !ext < 0 then None else Some (sorted_ids buf !n, !ext)
  in
  (match fresh with _ :: _ :: _ -> s.prio_read <- true | _ -> ());
  let oldest_group_first a b =
    let pa = s.msgs.(a).Message.group_priority and pb = s.msgs.(b).Message.group_priority in
    match Priority.compare pa pb with 0 -> Node_id.compare s.senders.(a) s.senders.(b) | c -> c
  in
  let dmax = t.config.Config.dmax in
  let accepted = ref (List.filter_map foreign_part !in_view) in
  List.iter
    (fun k ->
      match foreign_part k with
      | None -> ()
      | Some (ids, ext) ->
          let compatible_with (ids', ext') =
            (not (disjoint ids ids' 0 0)) || ext + ext' + 2 <= dmax
          in
          if List.for_all compatible_with !accepted then accepted := (ids, ext) :: !accepted
          else reject s k Mark.Double)
    (List.sort oldest_group_first fresh)

let check_incoming t s =
  check_each_incoming t s;
  if t.config.Config.joint_admission_enabled then cross_check t s

(* Lines 10-13: the ant fold of the admitted lists, in sender id order. *)
let fold_ant t s =
  Registry.Counter.add t.metrics.m_ant_merge s.n_senders;
  let acc = Antlist.ant_fold_start (Antlist.singleton t.id) in
  for k = 0 to s.n_senders - 1 do
    Antlist.ant_fold_add acc s.lists.(k)
  done;
  Antlist.ant_fold_finish acc

(* Priority contest against the too-far node w: w's node priority against
   the priority of the local group — the strongest (minimal) priority
   among my current view members, mine included.  The challenger side
   stays a node priority: the paper's cross-group refinement would want
   w's group priority, but that is only well defined once the groups have
   stabilized; during convergence the only estimate available (the
   provider's advertised group priority) degenerates to the local group's
   own priority and the contest livelocks on symmetric topologies.  The
   DEFENDER side, by contrast, has a locally well-defined group priority,
   and using it is what makes the repair of a concurrent double merge
   asymmetric: on the 6-path race both ends used to cut their bridge
   (each end's own priority lost to the opposite end's node priority),
   re-symmetrizing the race forever — with the group minimum, the side
   holding the globally oldest member defends successfully and keeps its
   bridge, so exactly one side dissolves.

   The group defense only applies when every provider of w is FOREIGN
   (none is a member of my own view).  When a group-mate vouches for w,
   the contest is an intra-group disagreement about admitting w — if the
   whole group's strength could overrule the vouching member forever, a
   split view (one member mutually holds w, the rest reject it) would
   freeze into a stable Pi-A violation.  There the defender falls back
   to its own node priority, which keeps such disagreements churning
   until they dissolve one way or the other.  See DESIGN.md Section 5. *)
let defense_priority t s ~providers =
  if Node_id.Set.disjoint providers t.view then table_group_priority t s
  else t.own_priority

let too_far_priority t s ~w ~providers =
  s.prio_read <- true;
  let i = search s.tab_ids w 0 s.table_n in
  let pw = if i < 0 then Priority.lowest else table_priority s ~own_priority:t.own_priority i in
  (pw, defense_priority t s ~providers)

(* Lines 14-29: resolve the Dmax+2 overflow.  Providers of a winning too-far
   node are double-marked and the list is recomputed without them; remaining
   too-far nodes (which lost the contest) are truncated away.

   Contest cooldown (DESIGN.md Section 5, item 14): when the local
   priority defends the pairing (the far node loses), the own oldness
   freezes for [Priority.cooldown_window] computes — the winner of a
   contest may not re-age into a contestable priority right away.
   Without the hold, sparse topologies livelock: the lone loser ages,
   wins the next contest, displaces a paired node, and the new lone node
   starts the cycle again (the ring7 repro).  Symmetrically, a far node
   that wins here may, within the same window, keep winning against the same
   providers — persistent rejection is how a geometrically infeasible
   straddle gets and stays cut — but not against a disjoint provider set:
   displacing a second, freshly formed pairing right after the first is
   the rotation signature, and those claims are silently truncated. *)
let resolve_too_far t s ~folded candidate =
  let dmax = t.config.Config.dmax in
  if Antlist.clear_size candidate < dmax + 2 then (candidate, false, [])
  else begin
    let tracing = Trace.enabled t.trace in
    (* A contest's cause: the newest lineage among the providers'
       messages this compute — the advertisement that reported the far
       node.  Trace-branch only. *)
    let contest_cause providers =
      Node_id.Set.fold (fun p acc -> max acc (lid_of_sender s p)) providers (-1)
    in
    let cooldown = t.config.Config.contest_cooldown_enabled in
    let too_far = clear_level_ids candidate (dmax + 1) in
    let wins = ref [] in
    Node_id.Set.iter
      (fun w ->
        (* Only providers that advertise w as an established member of
           their view may be cut: while w is still quarantined on the
           provider's side, cutting would split the existing group because
           of a newcomer — precisely what the quarantine exists to prevent
           (Proposition 14, case iii).  Unestablished too-far nodes are
           silently truncated; their conflict resolves at their own entry
           point.  DESIGN.md Section 5.  A sender already cut holds a
           marked singleton, which has no level Dmax. *)
        let providers = ref [] in
        for k = s.n_senders - 1 downto 0 do
          if Node_id.Set.mem w s.msgs.(k).Message.view && clear_at s.lists.(k) dmax w then
            providers := k :: !providers
        done;
        if !providers <> [] then begin
          let provider_set =
            List.fold_left (fun acc k -> Node_id.Set.add s.senders.(k) acc) Node_id.Set.empty
              !providers
          in
          let held =
            cooldown
            && match Node_id.Map.find_opt w t.contest_hold with
               | Some (_, cut) -> Node_id.Set.disjoint provider_set cut
               | None -> false
          in
          if not held then begin
            let pw, pv = too_far_priority t s ~w ~providers:provider_set in
            if Priority.beats ~window:(Priority.contest_window ~dmax) pw pv then begin
              List.iter (fun k -> reject s k Mark.Double) !providers;
              Registry.Counter.incr t.metrics.m_contest_win;
              if tracing then
                Trace.emit t.trace
                  (Trace.Contest_win
                     { node = t.id; far = w; cause = contest_cause provider_set });
              wins := (w, provider_set) :: !wins;
              if cooldown then
                t.contest_hold <-
                  Node_id.Map.add w
                    (Priority.cooldown_window ~dmax, provider_set)
                    t.contest_hold
            end
            else if cooldown then begin
              Registry.Counter.incr t.metrics.m_contest_freeze;
              if tracing then
                Trace.emit t.trace
                  (Trace.Contest_freeze
                     { node = t.id; far = w; cause = contest_cause provider_set });
              t.oldness_hold <- max t.oldness_hold (Priority.cooldown_window ~dmax)
            end
          end
        end)
      too_far;
    (* Re-fold only when a provider was actually cut: with the lists
       unchanged the fold is a deterministic function of the same inputs,
       so its result is (structurally) [folded] again — and the overflow
       branch without a contest winner is by far the common case under
       mobility churn. *)
    let lst = if !wins = [] then folded else fold_ant t s in
    (Antlist.truncate lst (dmax + 1), true, !wins)
  end

(* Line 30: a countdown per list entry.  A new entry starts at Dmax, a
   marked one is held there, and every clear compute counts down by one,
   the first included.  So a marked -> clear entry reaches 0 one compute
   before a new entry would (at once at Dmax 1): the count is not the
   computes since the entry became unmarked (DESIGN.md Section 5, item
   10). *)
let update_quarantine t lst =
  let dmax = t.config.Config.dmax in
  let q =
    Antlist.fold_entries lst ~init:Node_id.Map.empty ~f:(fun acc v _ mark ->
        let remaining =
          if Node_id.equal v t.id then 0
          else if not t.config.Config.quarantine_enabled then 0
          else if Mark.is_marked mark then dmax
          else
            match Node_id.Map.find_opt v t.quarantine with
            | None -> dmax
            | Some k -> max 0 (k - 1)
        in
        Node_id.Map.add v remaining acc)
  in
  t.quarantine <- q

(* Cascaded admission evidence (DESIGN.md Section 5).  A candidate clears
   the gate when:
   - it is a direct sender whose raw list holds me unmarked (the link is
     confirmed symmetric and it computes me as a member), or
   - a current view-mate advertises it in its own view (approval has
     propagated from its entry edge).
   Retention is presence-based as before: the gate applies to new
   admissions only, so it cannot evict anybody.  Asked per candidate of
   the msgSet arrays ([fill_standings]); no evidence set is built. *)
let evident s v =
  (let k = search s.senders v 0 s.n_senders in
   k >= 0 && clear_somewhere s.standing.(k))
  || advertised s ~mates:true v 0

(* Continuous membership re-validation (DESIGN.md Section 5, item 15; part
   of the admission gate).  The counter-evidence is strictly firsthand
   mutuality: a direct sender that could be (or is) my group partner —
   an established mate, or a clear, unquarantined candidate settled in a
   group of its own — keeps reporting a view that excludes me.
   [Priority.cooldown_window] consecutive exclusions convict the sender:
   it becomes inadmissible, for retention and admission alike, until the
   testimony stops.  An affirmation (its view names me again) clears the
   count at once, and a count that goes unrefreshed for a window expires,
   so stale counter-evidence cannot permanently block a later legitimate
   merge.  Without the window, the transient view skew of an ordinary
   merge (one quarantine plus one propagation round per hop) would evict
   freshly admitted members.

   A solo candidate's view excludes everybody — vacuous; counting it
   would deadlock every pair of adjacent solo nodes symmetrically.

   Deliberately NO secondhand (mate-about-third-party) testimony: a mate
   excluding v is indistinguishable from a mate whose admission cascade
   for v has not completed — or whose own conviction of v is what blocks
   it — and counting it lets convictions sustain each other in frozen
   cycles, or starve the too-far contest of the provider whose
   advertisement it needs.  Secondhand disagreement is left to the
   machinery the paper already has: marks at the entry edges, ghost
   entries aging out of the lists, the too-far contest, and the
   starvation rule below. *)
let update_conflicts t s =
  let window = Priority.cooldown_window ~dmax:t.config.Config.dmax in
  t.conflict <-
    Node_id.Map.filter_map
      (fun _ (n, age) -> if age >= window then None else Some (n, age + 1))
      t.conflict;
  let eligible v =
    clear_anywhere t.antlist v
    && match Node_id.Map.find_opt v t.quarantine with Some 0 -> true | _ -> false
  in
  for k = 0 to s.n_senders - 1 do
    let u = s.senders.(k) and view = s.msgs.(k).Message.view in
    if Node_id.Set.mem t.id view then t.conflict <- Node_id.Map.remove u t.conflict
    else if Node_id.Set.mem u t.view || (eligible u && Node_id.Set.cardinal view >= 2) then begin
      let n = match Node_id.Map.find_opt u t.conflict with Some (n, _) -> n | None -> 0 in
      if n + 1 = window then begin
        Registry.Counter.incr t.metrics.m_conviction;
        if Trace.enabled t.trace then
          Trace.emit t.trace
            (Trace.Gate_conviction { node = t.id; peer = u; cause = lid_of_sender s u })
      end;
      t.conflict <- Node_id.Map.add u (n + 1, 0) t.conflict
    end
  done

(* Senders that have persistently excluded me for a full window. *)
let conflicted_set t =
  let window = Priority.cooldown_window ~dmax:t.config.Config.dmax in
  Node_id.Map.fold
    (fun v (n, _) acc -> if n >= window then Node_id.Set.add v acc else acc)
    t.conflict Node_id.Set.empty

(* Absence side of the re-validation: an established member no view-mate
   has advertised (and that has not reported directly) for a full window
   has silently fallen out of the group — exclusion testimony cannot reach
   me when the member sits several hops away and the mates that used to
   relay it are gone.  Ages the starvation counters against the current
   evidence and returns the members to drop. *)
let starved_set t s =
  let window = Priority.cooldown_window ~dmax:t.config.Config.dmax in
  t.starve <-
    Node_id.Set.fold
      (fun v acc ->
        if Node_id.equal v t.id then acc
        else if evident s v then acc
        else
          let age =
            match Node_id.Map.find_opt v t.starve with Some a -> a | None -> 0
          in
          if age + 1 = window then Registry.Counter.incr t.metrics.m_starvation;
          Node_id.Map.add v (age + 1) acc)
      t.view Node_id.Map.empty;
  Node_id.Map.fold
    (fun v age acc -> if age >= window then Node_id.Set.add v acc else acc)
    t.starve Node_id.Set.empty

let compute_view t s lst ~conflicted =
  Antlist.fold_entries lst ~init:Node_id.Set.empty ~f:(fun acc v _ mark ->
      let admitted =
        mark = Mark.Clear
        && (match Node_id.Map.find_opt v t.quarantine with Some 0 -> true | _ -> false)
        && (Node_id.equal v t.id
           || (not t.config.Config.admission_gate_enabled)
           || (Node_id.Set.mem v t.view || evident s v)
              && not (Node_id.Set.mem v conflicted))
      in
      if admitted then Node_id.Set.add v acc else acc)

let update_priorities t s lst ~clock =
  (* Oldness accrues only while the node is truly alone: in a group (view
     of two or more) or actively merging (unmarked list members beyond
     itself) the clock holds.  If failed merge attempts kept aging a node,
     every collapse would make it weaker, it would defer to everyone in
     the next too-far contest and shatter its own links again — observed
     as multi-thousand-round convergence tails on chains of groups
     (DESIGN.md Section 5). *)
  let in_group = Node_id.Set.cardinal t.view >= 2 in
  let merging =
    (* At least two distinct Clear ids: the fold state is -1 (none yet),
       the first Clear id, or -2 (a second one seen); ids are non-negative. *)
    Antlist.fold_entries lst ~init:(-1) ~f:(fun acc v _ mark ->
        if acc = -2 || mark <> Mark.Clear || acc = v then acc
        else if acc = -1 then v
        else -2)
    = -2
  in
  (match t.config.Config.priority_mode with
  | Config.Oldness ->
      (* A contest winner additionally holds through [oldness_hold]
         (resolve_too_far): re-aging right after displacing a rival would
         hand the rival the next contest and rotate the pairing forever. *)
      if t.oldness_hold > 0 then t.oldness_hold <- t.oldness_hold - 1
      else if not (in_group || merging) then
        t.own_priority <- Priority.bump (Priority.sync t.own_priority clock)
  | Config.Lowest_id -> ());
  (* Keep the list members' entries and the own one, now the updated own
     priority, compacting the merge scratch in place before copying the
     table out at its exact size. *)
  let w = ref 0 in
  for r = 0 to s.table_n - 1 do
    let v = s.tab_ids.(r) in
    if Node_id.equal v t.id || Antlist.mem lst v then begin
      s.tab_ids.(!w) <- v;
      s.tab_src.(!w) <- s.tab_src.(r);
      incr w
    end
  done;
  t.prio_ids <- Array.sub s.tab_ids 0 !w;
  t.prio_vals <- table_priorities s ~own_priority:t.own_priority !w

(* Mark handshake and quarantine transitions are derived by diffing the
   protocol state across one compute — the list marks and the quarantine
   table are the canonical handshake state, so diffing them reports exactly
   the transitions that happened regardless of which code path caused
   them.  The mark diff is trace-branch only. *)
let emit_mark_transitions t s ~old_list ~new_list =
  let mark_name = function
    | Mark.Single -> "single"
    | Mark.Double -> "double"
    | Mark.Clear -> "clear"
  in
  let old_marks =
    Antlist.fold_entries old_list ~init:Node_id.Map.empty ~f:(fun acc v _ m ->
        Node_id.Map.add v m acc)
  in
  Antlist.fold_entries new_list ~init:() ~f:(fun () v _ m ->
      if not (Node_id.equal v t.id) then
        let old_m = Node_id.Map.find_opt v old_marks in
        match m with
        | Mark.Clear ->
            if (match old_m with Some om -> Mark.is_marked om | None -> false) then
              Trace.emit t.trace
                (Trace.Mark_cleared
                   { node = t.id; peer = v; cause = lid_of_sender s v })
        | Mark.Single | Mark.Double ->
            if old_m <> Some m then
              Trace.emit t.trace
                (Trace.Mark_set
                   {
                     node = t.id;
                     peer = v;
                     mark = mark_name m;
                     cause = lid_of_sender s v;
                   }))

(* One walk of the quarantine diff feeds both the counters (inert on a
   null registry) and, when [tracing], the trace.  A member new to the
   table counts as previously admitted. *)
let quarantine_transitions t s ~old_q ~tracing =
  Node_id.Map.iter
    (fun v k ->
      if not (Node_id.equal v t.id) then begin
        let ko = Option.value (Node_id.Map.find_opt v old_q) ~default:0 in
        if k > 0 && ko = 0 then begin
          Registry.Counter.incr t.metrics.m_q_enter;
          if tracing then
            Trace.emit t.trace
              (Trace.Quarantine_enter
                 { node = t.id; member = v; remaining = k; cause = lid_of_sender s v })
        end
        else if k = 0 && ko > 0 then begin
          Registry.Counter.incr t.metrics.m_q_admit;
          if tracing then
            Trace.emit t.trace
              (Trace.Quarantine_admit { node = t.id; member = v; cause = lid_of_sender s v })
        end
      end)
    t.quarantine

(* The known priorities of the list members, filtered out of the table;
   the table's own arrays when it holds nothing else. *)
let build_message t =
  let n = Array.length t.prio_ids in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if Antlist.mem t.antlist t.prio_ids.(i) then incr kept
  done;
  let priority_ids, priorities =
    if !kept = n then (t.prio_ids, t.prio_vals)
    else begin
      let ids = Array.make !kept 0 and vals = Array.make !kept Priority.lowest in
      let k = ref 0 in
      for i = 0 to n - 1 do
        if Antlist.mem t.antlist t.prio_ids.(i) then begin
          ids.(!k) <- t.prio_ids.(i);
          vals.(!k) <- t.prio_vals.(i);
          incr k
        end
      done;
      (ids, vals)
    end
  in
  Message.make ~sender:t.id ~antlist:t.antlist ~priority_ids ~priorities
    ~group_priority:(group_priority t) ~view:t.view

let rec same_priorities_from (a : Message.t) (b : Message.t) i =
  i < 0
  || Node_id.equal a.Message.priority_ids.(i) b.Message.priority_ids.(i)
     && Priority.equal a.Message.priorities.(i) b.Message.priorities.(i)
     && same_priorities_from a b (i - 1)

let same_priorities (a : Message.t) (b : Message.t) =
  (a.Message.priority_ids == b.Message.priority_ids
  && a.Message.priorities == b.Message.priorities)
  || Array.length a.Message.priority_ids = Array.length b.Message.priority_ids
     && same_priorities_from a b (Array.length a.Message.priority_ids - 1)

(* The previous message is returned physically while nothing it is built
   from changed, so receivers see [==] inputs and can elide in turn. *)
let make_message t =
  if t.msg_fresh then t.last_msg
  else begin
    let m = t.last_msg and msg = build_message t in
    t.msg_fresh <- true;
    if
      m.Message.antlist == msg.Message.antlist
      && m.Message.view == msg.Message.view
      && Priority.equal m.Message.group_priority msg.Message.group_priority
      && same_priorities m msg
    then m
    else begin
      t.last_msg <- msg;
      msg
    end
  end

(* Timer state ages on every compute, so a fixpoint has none of it. *)
let settled t =
  t.oldness_hold = 0 && Node_id.Map.is_empty t.contest_hold
  && Node_id.Map.is_empty t.conflict && Node_id.Map.is_empty t.starve

(* The counters a repeated fixpoint's full compute would bump in its
   admission and fold. *)
let replay_counters t s =
  Registry.Counter.add t.metrics.m_ant_merge s.n_senders;
  Registry.Counter.add t.metrics.m_restrict t.restricts

(* The tail of every compute that is not elided: drop the consumed msgSet
   and build the next message, lapping the update phase from [lap] and
   the message phase, then close [grp_compute_ns] with its own clock read,
   so time no lap covers shows in the whole but not in the phases. *)
let finish t s ~m_t0 lap =
  release s;
  t.msg_fresh <- false;
  let lap = Registry.Timer.lap t.metrics.m_update_ns lap in
  (* The next message is built here, where its cost is attributed:
     [make_message] then returns it until the state changes again. *)
  ignore (make_message t);
  ignore (Registry.Timer.lap t.metrics.m_message_ns lap);
  Registry.Timer.stop t.metrics.m_compute_ns m_t0

(* Elision: same inputs repeat a fixpoint, so return its result and replay
   the counters its full compute bumps; inputs that differ only in their
   priorities reuse its decisions.  Only a repeat of the same messages
   counts as a cache hit, whether elided or not, so traced and untraced
   runs count alike.  Both are off under tracing: a traced fixpoint still
   emits events. *)
let compute t =
  Registry.Counter.incr t.metrics.m_compute;
  let m_t0 = Registry.Timer.start t.metrics.m_compute_ns in
  let s = Domain.DLS.get scratch_key in
  let repeat = ingest t s in
  let lap = Registry.Timer.lap t.metrics.m_ingest_ns m_t0 in
  Registry.Counter.incr
    (match repeat with
    | Same_messages -> t.metrics.m_cache_hit
    | Same_lists | Changed -> t.metrics.m_cache_miss);
  match (t.fixpoint, repeat) with
  | Fixpoint fp, Same_messages when not (Trace.enabled t.trace) ->
      replay_counters t s;
      release s;
      Registry.Timer.stop t.metrics.m_compute_ns m_t0;
      fp.fp_step
  | Fixpoint fp, Same_lists when fp.fp_prio_free && not (Trace.enabled t.trace) ->
      (* Decision reuse: the senders' lists and views repeat a fixpoint
         whose decisions read no priority, so only the priority table and
         the message are rebuilt.  The own priority does not move: at the
         fixpoint it held still with the same list and view, and
         [settled] leaves no [oldness_hold] to count down. *)
      replay_counters t s;
      Array.blit s.msgs 0 fp.fp_msgs 0 s.n_senders;
      let clock = merge_priorities s ~me:t.id in
      let lap = Registry.Timer.lap t.metrics.m_priority_ns lap in
      update_priorities t s t.antlist ~clock;
      finish t s ~m_t0 lap;
      fp.fp_step
  | _ ->
  let dmax = t.config.Config.dmax in
  let old_priority = t.own_priority and was_settled = settled t in
  s.prio_read <- false;
  let clock = merge_priorities s ~me:t.id in
  t.contest_hold <-
    Node_id.Map.filter_map
      (fun _ (k, cut) -> if k > 1 then Some (k - 1, cut) else None)
      t.contest_hold;
  let lap = Registry.Timer.lap t.metrics.m_priority_ns lap in
  fill_standings t s;
  let conflicted =
    if t.config.Config.admission_gate_enabled then begin
      update_conflicts t s;
      Node_id.Set.union (conflicted_set t) (starved_set t s)
    end
    else Node_id.Set.empty
  in
  check_incoming t s;
  let lap = Registry.Timer.lap t.metrics.m_admission_ns lap in
  let f_t0 = Registry.Timer.start t.metrics.m_fold_ns in
  let folded = fold_ant t s in
  Registry.Timer.stop t.metrics.m_fold_ns f_t0;
  let candidate = Antlist.truncate folded (dmax + 2) in
  let lap = Registry.Timer.lap t.metrics.m_fold_phase_ns lap in
  let final_list, too_far_conflict, contest_wins =
    resolve_too_far t s ~folded candidate
  in
  let final_list = Antlist.truncate final_list (dmax + 1) in
  let lap = Registry.Timer.lap t.metrics.m_contest_ns lap in
  let old_list = t.antlist in
  let old_q = t.quarantine in
  update_quarantine t final_list;
  let old_view = t.view in
  let new_view = compute_view t s final_list ~conflicted in
  let tracing = Trace.enabled t.trace in
  if tracing then emit_mark_transitions t s ~old_list ~new_list:final_list;
  if tracing || t.metrics.m_on then quarantine_transitions t s ~old_q ~tracing;
  if tracing then begin
    if not (Node_id.Set.equal new_view old_view) then begin
      let added = Node_id.Set.elements (Node_id.Set.diff new_view old_view) in
      let removed = Node_id.Set.elements (Node_id.Set.diff old_view new_view) in
      (* The change's cause: the message of an added/removed member when
         one sent this compute (its advertisement is what flipped its own
         membership), else the newest ingested lineage — the freshest
         evidence the fold consumed. *)
      let pick vs =
        List.fold_left
          (fun acc v -> if acc >= 0 then acc else lid_of_sender s v)
          (-1) vs
      in
      let cause =
        let c = pick added in
        let c = if c >= 0 then c else pick removed in
        if c >= 0 then c else Array.fold_left max (-1) (Array.sub s.lids 0 s.n_senders)
      in
      Trace.emit t.trace
        (Trace.View_changed
           { node = t.id; added; removed; view = Node_id.Set.elements new_view; cause })
    end
  end;
  (* Preserve physical identity when nothing changed: the stable list is
     re-broadcast as-is, so next round's equality checks (here, in
     [make_message] and in every receiver's [ingest]) are pointer
     comparisons. *)
  t.antlist <- (if Antlist.equal final_list old_list then old_list else final_list);
  t.view <- (if Node_id.Set.equal new_view old_view then old_view else new_view);
  update_priorities t s final_list ~clock;
  let view_added = Node_id.Set.diff new_view old_view in
  let view_removed = Node_id.Set.diff old_view new_view in
  let step = { view_added; view_removed; too_far_conflict; contest_wins } in
  (* A frozen contest leaves [oldness_hold > 0], so [settled] covers it. *)
  t.fixpoint <-
    (if was_settled && settled t && contest_wins = [] && t.antlist == old_list
        && t.view == old_view && t.own_priority == old_priority
        && Node_id.Map.equal Int.equal t.quarantine old_q
     then
       let fp_msgs = Array.sub s.msgs 0 s.n_senders in
       Fixpoint { fp_msgs; fp_step = step; fp_prio_free = not s.prio_read }
     else No_fixpoint);
  if t.metrics.m_on && not (Node_id.Set.equal new_view old_view) then begin
    Registry.Counter.add t.metrics.m_view_add (Node_id.Set.cardinal view_added);
    Registry.Counter.add t.metrics.m_view_remove (Node_id.Set.cardinal view_removed);
    Registry.Hist.observe_int t.metrics.m_view_size (Node_id.Set.cardinal new_view)
  end;
  finish t s ~m_t0 lap;
  step

let convictions t = conflicted_set t

let invalidate t =
  t.fixpoint <- No_fixpoint;
  t.msg_fresh <- false

let corrupt_list t lst = invalidate t; t.antlist <- lst
let corrupt_view t v = invalidate t; t.view <- v

let corrupt_quarantine t qs =
  invalidate t;
  t.quarantine <- List.fold_left (fun acc (v, k) -> Node_id.Map.add v k acc) t.quarantine qs

let corrupt_priority t p = invalidate t; t.own_priority <- p

let corrupt_priority_table t ps =
  invalidate t;
  let table = List.combine (Array.to_list t.prio_ids) (Array.to_list t.prio_vals) in
  let ids, vals = Message.priority_arrays (table @ ps) in
  t.prio_ids <- ids;
  t.prio_vals <- vals

let pp ppf t =
  Format.fprintf ppf "@[<v>node %a: list=%a@ view=%a pr=%a@]" Node_id.pp t.id Antlist.pp
    t.antlist Node_id.pp_set t.view Priority.pp t.own_priority
