(* White-box tests of the GRP node: handshake, admission tests, quarantine,
   views, priorities, the too-far contest and fault injection. *)

open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ids = Alcotest.testable Node_id.pp_set Node_id.Set.equal
let config ?(dmax = 2) () = Config.make ~dmax ()

let msg_of node = Grp_node.make_message node

(* The first message of a fresh node [id]. *)
let peer_msg id = msg_of (Grp_node.create ~config:(config ()) id)

(* Deliver every node's message to every other (clique round) then compute
   all; used to drive small node sets by hand. *)
let clique_round nodes =
  let msgs = List.map (fun n -> msg_of n) nodes in
  List.iter (fun n -> List.iter (fun m -> Grp_node.receive n m) msgs) nodes;
  List.map (fun n -> (n, Grp_node.compute n)) nodes

let test_create () =
  let n = Grp_node.create ~config:(config ()) 4 in
  check_int "id" 4 (Grp_node.id n);
  Alcotest.check ids "initial view" (Node_id.Set.singleton 4) (Grp_node.view n);
  check "own list" true (Antlist.equal (Grp_node.antlist n) (Antlist.singleton 4));
  check "own quarantine 0" true (Grp_node.quarantine_of n 4 = Some 0)

module Trace = Dgs_trace.Trace

(* Events naming [v] as their sender, peer or member. *)
let about v = function
  | Trace.Merge_attempt { sender = u; _ }
  | Merge_accepted { sender = u; _ }
  | Mark_set { peer = u; _ }
  | Mark_cleared { peer = u; _ }
  | Quarantine_enter { member = u; _ }
  | Quarantine_admit { member = u; _ } -> Node_id.equal u v
  | _ -> false

let test_receive_keeps_last () =
  let a = Grp_node.create ~config:(config ()) 0 in
  let b = Grp_node.create ~config:(config ()) 1 in
  Grp_node.receive a (msg_of b);
  ignore (Grp_node.compute b);
  Grp_node.receive a (msg_of b);
  Alcotest.check ids "one sender buffered" (Node_id.Set.singleton 1)
    (Grp_node.pending_senders a);
  (* Sender 2's first message does not list node 0, its second does
     (single-marked); sender 1's arrives between them, out of id order. *)
  let n2 = Grp_node.create ~config:(config ()) 2 in
  let older = msg_of n2 in
  Grp_node.receive n2 (msg_of (Grp_node.create ~config:(config ()) 0));
  ignore (Grp_node.compute n2);
  let newer = msg_of n2 in
  let ring = Trace.Ring.create ~capacity:64 in
  let plain = Grp_node.create ~config:(config ()) 0
  and traced = Grp_node.create ~config:(config ()) ~trace:(Trace.Ring.sink ring) 0 in
  List.iter
    (fun a ->
      Grp_node.receive_lid a ~lid:10 older;
      Grp_node.receive_lid a ~lid:11 (peer_msg 1);
      Grp_node.receive_lid a ~lid:12 newer;
      ignore (Grp_node.compute a);
      check "the newer list acknowledges node 0: 2 turns clear" true
        (Antlist.find (Grp_node.antlist a) 2 = Some (1, Mark.Clear));
      check "sender 1 single-marked" true
        (Antlist.find (Grp_node.antlist a) 1 = Some (1, Mark.Single)))
    [ plain; traced ];
  let causes v =
    List.filter_map
      (fun (_, ev) -> if about v ev then Some (Trace.cause_of ev) else None)
      (Trace.Ring.contents ring)
  in
  check "events about sender 2" true (causes 2 <> []);
  check "their cause is the newer message" true (List.for_all (( = ) 12) (causes 2));
  check "events about sender 1 name its message" true
    (causes 1 <> [] && List.for_all (( = ) 11) (causes 1))

let test_receive_ignores_self () =
  let a = Grp_node.create ~config:(config ()) 0 in
  Grp_node.receive a (msg_of a);
  check "self message dropped" true (Node_id.Set.is_empty (Grp_node.pending_senders a))

let test_msgset_reset_after_compute () =
  let a = Grp_node.create ~config:(config ()) 0 in
  let b = Grp_node.create ~config:(config ()) 1 in
  Grp_node.receive a (msg_of b);
  ignore (Grp_node.compute a);
  check "msgSet reset" true (Node_id.Set.is_empty (Grp_node.pending_senders a))

let test_handshake_marks () =
  let a = Grp_node.create ~config:(config ~dmax:1 ()) 0 in
  let b = Grp_node.create ~config:(config ~dmax:1 ()) 1 in
  (* Round 1: both only know themselves; each single-marks the other. *)
  ignore (clique_round [ a; b ]);
  check "a single-marks b" true (Antlist.find (Grp_node.antlist a) 1 = Some (1, Mark.Single));
  check "b single-marks a" true (Antlist.find (Grp_node.antlist b) 0 = Some (1, Mark.Single));
  Alcotest.check ids "view still solo" (Node_id.Set.singleton 0) (Grp_node.view a);
  (* Round 2: each sees itself (marked) in the other's list: link confirmed
     and the entry turns clear; the admission gate then wants to see itself
     unmarked in the partner's list, which arrives one round later. *)
  ignore (clique_round [ a; b ]);
  check "b clear at a" true (Antlist.find (Grp_node.antlist a) 1 = Some (1, Mark.Clear));
  ignore (clique_round [ a; b ]);
  Alcotest.check ids "pair formed" (Node_id.set_of_list [ 0; 1 ]) (Grp_node.view a);
  Alcotest.check ids "pair formed at b" (Node_id.set_of_list [ 0; 1 ]) (Grp_node.view b)

let test_quarantine_delays_admission () =
  let dmax = 3 in
  let a = Grp_node.create ~config:(config ~dmax ()) 0 in
  let b = Grp_node.create ~config:(config ~dmax ()) 1 in
  ignore (clique_round [ a; b ]);
  ignore (clique_round [ a; b ]);
  (* After the handshake, b is clear at a but still quarantined. *)
  check "clear" true (Antlist.find (Grp_node.antlist a) 1 = Some (1, Mark.Clear));
  (match Grp_node.quarantine_of a 1 with
  | Some q -> check "quarantine pending" true (q > 0)
  | None -> Alcotest.fail "expected quarantine entry");
  check "not in view yet" false (Node_id.Set.mem 1 (Grp_node.view a));
  for _ = 1 to dmax do
    ignore (clique_round [ a; b ])
  done;
  check "admitted after Dmax computes" true (Node_id.Set.mem 1 (Grp_node.view a))

let test_no_quarantine_ablation () =
  let cfg = Config.make ~quarantine_enabled:false ~dmax:3 () in
  let a = Grp_node.create ~config:cfg 0 in
  let b = Grp_node.create ~config:cfg 1 in
  ignore (clique_round [ a; b ]);
  ignore (clique_round [ a; b ]);
  ignore (clique_round [ a; b ]);
  (* Dmax = 3 quarantine would keep b out for three more rounds; without it
     b enters as soon as the admission evidence arrives. *)
  check "admitted without waiting out the quarantine" true
    (Node_id.Set.mem 1 (Grp_node.view a))

let test_good_list () =
  let v = Grp_node.create ~config:(config ~dmax:2 ()) 0 in
  let ok = Antlist.of_levels [ [ (1, Mark.Clear) ]; [ (0, Mark.Clear) ] ] in
  check "accepts listing me" true (Grp_node.good_list v ~sender:1 ok);
  let marked_me = Antlist.of_levels [ [ (1, Mark.Clear) ]; [ (0, Mark.Single) ] ] in
  check "accepts single-marked me" true (Grp_node.good_list v ~sender:1 marked_me);
  let double_me = Antlist.of_levels [ [ (1, Mark.Clear) ]; [ (0, Mark.Double) ] ] in
  check "rejects double-marked me" false (Grp_node.good_list v ~sender:1 double_me);
  let absent = Antlist.of_levels [ [ (1, Mark.Clear) ]; [ (2, Mark.Clear) ] ] in
  check "rejects me-less list" false (Grp_node.good_list v ~sender:1 absent);
  let deep_clear =
    Antlist.of_levels [ [ (1, Mark.Clear) ]; [ (2, Mark.Clear) ]; [ (0, Mark.Clear) ] ]
  in
  check "accepts me clear at depth (group-mate over a new link)" true
    (Grp_node.good_list v ~sender:1 deep_clear);
  let too_long =
    Antlist.of_levels
      [ [ (1, Mark.Clear) ]; [ (0, Mark.Clear) ]; [ (2, Mark.Clear) ]; [ (3, Mark.Clear) ] ]
  in
  check "rejects oversized" false (Grp_node.good_list v ~sender:1 too_long);
  let gap =
    Antlist.of_levels [ [ (1, Mark.Clear) ]; [ (0, Mark.Clear) ]; []; [] ]
  in
  check "rejects empty level" false (Grp_node.good_list v ~sender:1 gap);
  let wrong_head = Antlist.of_levels [ [ (9, Mark.Clear) ]; [ (0, Mark.Clear) ] ] in
  check "rejects wrong head" false (Grp_node.good_list v ~sender:1 wrong_head)

let test_compatible_list_basic () =
  let v = Grp_node.create ~config:(config ~dmax:2 ()) 0 in
  (* Lone sender: always compatible with a lone receiver. *)
  let lone = Antlist.of_levels [ [ (1, Mark.Clear) ]; [ (0, Mark.Clear) ] ] in
  check "lone-lone" true
    (Grp_node.compatible_list v ~sender_view:(Node_id.Set.singleton 1) lone);
  (* Sender advertising an established group of extent 1: joining puts its
     far member at distance 2 = dmax from me — compatible. *)
  let near =
    Antlist.of_levels [ [ (1, Mark.Clear) ]; [ (0, Mark.Clear); (2, Mark.Clear) ] ]
  in
  check "extent-1 group fits dmax 2" true
    (Grp_node.compatible_list v ~sender_view:(Node_id.set_of_list [ 1; 2 ]) near);
  (* Extent 2: its far member would land at distance 3 > dmax. *)
  let big =
    Antlist.of_levels
      [ [ (1, Mark.Clear) ]; [ (0, Mark.Clear); (2, Mark.Clear) ]; [ (3, Mark.Clear) ] ]
  in
  let view_big = Node_id.set_of_list [ 1; 2; 3 ] in
  check "extent-2 group too far for dmax 2" false
    (Grp_node.compatible_list v ~sender_view:view_big big)

let test_compatible_list_rejects_overflow () =
  (* Receiver with an established line of extent 2 (dmax=2): a sender
     advertising one more established hop must be refused. *)
  let v = Grp_node.create ~config:(config ~dmax:2 ()) 0 in
  Grp_node.corrupt_list v
    (Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (1, Mark.Clear) ]; [ (2, Mark.Clear) ] ]);
  Grp_node.corrupt_view v (Node_id.set_of_list [ 0; 1; 2 ]);
  let sender =
    Antlist.of_levels [ [ (3, Mark.Clear) ]; [ (0, Mark.Clear); (4, Mark.Clear) ] ]
  in
  let sender_view = Node_id.set_of_list [ 3; 4 ] in
  check "overflowing merge refused" false
    (Grp_node.compatible_list v ~sender_view sender)

(* A message from [sender] with the given raw list and view; every
   sender's priority is the same oldness, so the smaller id is the older
   group. *)
let raw_msg sender levels view =
  let p = Priority.make ~oldness:1 ~id:sender in
  Message.make ~sender ~antlist:(Antlist.of_levels levels) ~priority_ids:[| sender |]
    ~priorities:[| p |] ~group_priority:p
    ~view:(Array.of_list (List.sort_uniq Node_id.compare view))

(* A corrupted own list may hold one id at several depths: here 5 is
   Double at level 1 and Clear at level 2 of node 0's list.  Admission
   must read both occurrences.  foreignViewExtent counts 5 as held, so a
   sender advertising it far away does not stretch the merge.  The split
   horizon measures the me-route to 5 through its closest undoubled level,
   2: senders 1 and 4 (Dmax 3, extents 1 and 1, so their parts are jointly
   acceptable only if they meet) both list 5, and whether they meet
   depends on whether sender 1's 5 is an echo of node 0's own 5. *)
let test_corrupt_list_repeated_id () =
  let corrupted () =
    let v = Grp_node.create ~config:(config ~dmax:3 ()) 0 in
    Grp_node.corrupt_list v
      (Antlist.of_levels [ [ (0, Mark.Clear) ]; [ (5, Mark.Double) ]; [ (5, Mark.Clear) ] ]);
    v
  in
  let far5 =
    Antlist.of_levels
      [ [ (7, Mark.Clear) ]; [ (0, Mark.Single); (8, Mark.Clear) ]; [ (9, Mark.Clear) ];
        [ (5, Mark.Clear) ] ]
  in
  check "5 is held: only 7 is foreign, nothing stretches" true
    (Grp_node.compatible_list (corrupted ()) ~sender_view:(Node_id.set_of_list [ 5; 7 ]) far5);
  (* Sender 4 lists 5 at level 1, one hop from itself: never an echo. *)
  let c = Mark.Clear in
  let b = raw_msg 4 [ [ (4, c) ]; [ (0, Mark.Single); (5, c); (6, c) ] ] [ 4; 6 ] in
  let level_of_4 levels_of_1 =
    let v = corrupted () in
    Grp_node.receive v (raw_msg 1 levels_of_1 [ 1; 2 ]);
    Grp_node.receive v b;
    ignore (Grp_node.compute v);
    Antlist.find (Grp_node.antlist v) 4
  in
  (* Sender 1 lists me at level 1, so 5 at level 3 = 1 + 2 is explainable
     as the route through me: an echo, the parts are disjoint and the
     younger sender, 4, is cut. *)
  check "5 at the me-route depth is an echo: 4 rejected" true
    (level_of_4 [ [ (1, c) ]; [ (0, Mark.Single); (2, c) ]; [ (3, c) ]; [ (5, c) ] ]
    = Some (1, Mark.Double));
  (* At level 2 < 1 + 2 it is a meeting off-board (level 1's double
     entry is no route), so both senders are admitted. *)
  check "5 nearer than the me-route is a meeting: 4 admitted" true
    (level_of_4 [ [ (1, c) ]; [ (0, Mark.Single); (2, c) ]; [ (3, c); (5, c) ] ]
    = Some (1, Mark.Clear))

let test_pair_formation_dmax1 () =
  (* Regression: two lone nodes at Dmax=1 must form a pair (the echo of
     the receiver in the sender's list must not count as extent). *)
  let a = Grp_node.create ~config:(config ~dmax:1 ()) 0 in
  let b = Grp_node.create ~config:(config ~dmax:1 ()) 1 in
  for _ = 1 to 4 do
    ignore (clique_round [ a; b ])
  done;
  Alcotest.check ids "pair" (Node_id.set_of_list [ 0; 1 ]) (Grp_node.view a)

let test_triangle_formation_dmax1 () =
  (* Regression: the triangle is a legal Dmax=1 clique; joint admission's
     overlap test must see the adjacency witnessed by marked entries. *)
  let mk i = Grp_node.create ~config:(config ~dmax:1 ()) i in
  let a = mk 0 and b = mk 1 and c = mk 2 in
  for _ = 1 to 6 do
    ignore (clique_round [ a; b; c ])
  done;
  let everyone = Node_id.set_of_list [ 0; 1; 2 ] in
  List.iter
    (fun n -> Alcotest.check ids "triangle clique" everyone (Grp_node.view n))
    [ a; b; c ]

let test_priority_freezes_in_group () =
  let a = Grp_node.create ~config:(config ~dmax:2 ()) 0 in
  let b = Grp_node.create ~config:(config ~dmax:2 ()) 1 in
  for _ = 1 to 6 do
    ignore (clique_round [ a; b ])
  done;
  let frozen = (Grp_node.own_priority a).Priority.oldness in
  for _ = 1 to 5 do
    ignore (clique_round [ a; b ])
  done;
  check_int "oldness frozen once grouped" frozen
    (Grp_node.own_priority a).Priority.oldness

let test_solo_priority_bumps () =
  let a = Grp_node.create ~config:(config ()) 0 in
  ignore (Grp_node.compute a);
  ignore (Grp_node.compute a);
  check_int "bumps while solo" 2 (Grp_node.own_priority a).Priority.oldness

let test_lamport_sync () =
  (* A freshly booted node hearing an old network jumps its clock forward
     so it cannot outrank established members. *)
  let a = Grp_node.create ~config:(config ()) 0 in
  let b = Grp_node.create ~config:(config ()) 1 in
  Grp_node.corrupt_priority b (Priority.make ~oldness:50 ~id:1);
  Grp_node.corrupt_priority_table b [ (1, Priority.make ~oldness:50 ~id:1) ];
  Grp_node.receive a (msg_of b);
  ignore (Grp_node.compute a);
  check "clock jumped" true ((Grp_node.own_priority a).Priority.oldness >= 50)

let test_group_priority_is_min () =
  let a = Grp_node.create ~config:(config ~dmax:2 ()) 0 in
  let b = Grp_node.create ~config:(config ~dmax:2 ()) 1 in
  for _ = 1 to 6 do
    ignore (clique_round [ a; b ])
  done;
  let ga = Grp_node.group_priority a in
  let pa = Grp_node.own_priority a in
  let pb =
    match Grp_node.known_priority a 1 with Some p -> p | None -> Alcotest.fail "pb"
  in
  check "group priority = min of members" true
    (Priority.equal ga (Priority.min pa pb))

let test_message_contents () =
  let a = Grp_node.create ~config:(config ()) 0 in
  let b = Grp_node.create ~config:(config ()) 1 in
  for _ = 1 to 4 do
    ignore (clique_round [ a; b ])
  done;
  let m = msg_of a in
  check_int "sender" 0 m.Message.sender;
  check "list included" true (Antlist.equal m.Message.antlist (Grp_node.antlist a));
  check "priorities cover list ids" true
    (Node_id.Set.for_all
       (fun v -> List.mem_assoc v (Message.priority_bindings m))
       (Antlist.ids m.Message.antlist));
  Alcotest.check ids "view advertised" (Grp_node.view a)
    (Node_id.set_of_list (Array.to_list m.Message.view))

let test_step_info_reports_changes () =
  let a = Grp_node.create ~config:(config ~dmax:1 ()) 0 in
  let b = Grp_node.create ~config:(config ~dmax:1 ()) 1 in
  (* Two warmup rounds: the admission gate needs one exchange of evidence
     before the pairing forms, so the addition lands on round three. *)
  ignore (clique_round [ a; b ]);
  ignore (clique_round [ a; b ]);
  let infos = clique_round [ a; b ] in
  let _, ia = List.hd infos in
  Alcotest.check ids "addition reported" (Node_id.Set.singleton 1) ia.Grp_node.view_added;
  (* b falls silent: a evicts it and reports the removal. *)
  let ia = Grp_node.compute a in
  Alcotest.check ids "removal reported" (Node_id.Set.singleton 1)
    ia.Grp_node.view_removed

let test_silence_evicts () =
  let a = Grp_node.create ~config:(config ~dmax:2 ()) 0 in
  let b = Grp_node.create ~config:(config ~dmax:2 ()) 1 in
  for _ = 1 to 5 do
    ignore (clique_round [ a; b ])
  done;
  check "paired" true (Node_id.Set.mem 1 (Grp_node.view a));
  (* One compute with an empty msgSet: the departed neighbor disappears. *)
  ignore (Grp_node.compute a);
  Alcotest.check ids "view reset to self" (Node_id.Set.singleton 0) (Grp_node.view a);
  check "list reset" true (Antlist.equal (Grp_node.antlist a) (Antlist.singleton 0))

let test_corrupt_state_recovers () =
  (* Self-stabilization in the small: a corrupted node heals in one
     exchange with a correct neighbor. *)
  let a = Grp_node.create ~config:(config ~dmax:2 ()) 0 in
  let b = Grp_node.create ~config:(config ~dmax:2 ()) 1 in
  for _ = 1 to 5 do
    ignore (clique_round [ a; b ])
  done;
  Grp_node.corrupt_list a
    (Antlist.of_levels
       [ [ (0, Mark.Clear) ]; [ (77, Mark.Clear) ]; [ (88, Mark.Double) ] ]);
  Grp_node.corrupt_view a (Node_id.set_of_list [ 0; 77 ]);
  Grp_node.corrupt_quarantine a [ (77, 0) ];
  for _ = 1 to 6 do
    ignore (clique_round [ a; b ])
  done;
  Alcotest.check ids "ghosts purged" (Node_id.set_of_list [ 0; 1 ]) (Grp_node.view a);
  check "ghost not in list" false (Antlist.mem (Grp_node.antlist a) 77)

let test_admission_gate () =
  (* With the optional gate, a transitive candidate enters the view only
     once a view-mate advertises it — one-sided memberships become
     impossible.  Drive a 3-line by hand: a-b-c with a and c out of range
     of each other. *)
  let cfg = Config.make ~admission_gate_enabled:true ~dmax:2 () in
  let a = Grp_node.create ~config:cfg 0 in
  let b = Grp_node.create ~config:cfg 1 in
  let c = Grp_node.create ~config:cfg 2 in
  let line_round () =
    let ma = msg_of a and mb = msg_of b and mc = msg_of c in
    Grp_node.receive a mb;
    Grp_node.receive b ma;
    Grp_node.receive b mc;
    Grp_node.receive c mb;
    ignore (Grp_node.compute a);
    ignore (Grp_node.compute b);
    ignore (Grp_node.compute c)
  in
  for _ = 1 to 12 do
    line_round ()
  done;
  let everyone = Node_id.set_of_list [ 0; 1; 2 ] in
  Alcotest.check ids "gated line forms" everyone (Grp_node.view a);
  Alcotest.check ids "gated line forms at c" everyone (Grp_node.view c)

let test_asymmetric_link_never_groups () =
  (* b hears a, a never hears b (directed link): the triple handshake
     cannot complete, b keeps a single-marked and no pair ever forms —
     "asymmetric link information is not propagated". *)
  let a = Grp_node.create ~config:(config ~dmax:2 ()) 0 in
  let b = Grp_node.create ~config:(config ~dmax:2 ()) 1 in
  for _ = 1 to 10 do
    let ma = msg_of a in
    ignore (msg_of b);
    Grp_node.receive b ma;
    (* a receives nothing *)
    ignore (Grp_node.compute a);
    ignore (Grp_node.compute b)
  done;
  Alcotest.check ids "b stays solo" (Node_id.Set.singleton 1) (Grp_node.view b);
  (match Antlist.find (Grp_node.antlist b) 0 with
  | Some (1, Mark.Single) -> ()
  | other ->
      Alcotest.failf "expected a single-marked at level 1, got %s"
        (match other with
        | None -> "absent"
        | Some (p, m) -> Printf.sprintf "pos %d mark %s" p (Mark.to_string m)));
  Alcotest.check ids "a stays solo" (Node_id.Set.singleton 0) (Grp_node.view a)

let test_too_far_contest_truncates_for_winner () =
  (* A line 0-1-2-3 at Dmax=2: once everyone merges speculatively, the
     ends see each other at distance 3 = Dmax+1.  The higher-priority
     (lower id under equal oldness) end keeps its side; the far end is
     truncated, not the provider cut, when the far node loses. *)
  let cfg = config ~dmax:2 () in
  let nodes = List.init 4 (fun i -> Grp_node.create ~config:cfg i) in
  let line_round () =
    let msgs = List.map msg_of nodes in
    let get i = List.nth msgs i in
    let recv i m = Grp_node.receive (List.nth nodes i) m in
    recv 0 (get 1);
    recv 1 (get 0);
    recv 1 (get 2);
    recv 2 (get 1);
    recv 2 (get 3);
    recv 3 (get 2);
    List.map (fun n -> Grp_node.compute n) nodes
  in
  let saw_conflict = ref false in
  for _ = 1 to 15 do
    List.iter
      (fun (i : Grp_node.step_info) ->
        if i.Grp_node.too_far_conflict then saw_conflict := true)
      (line_round ())
  done;
  check "a too-far conflict happened" true !saw_conflict;
  (* The stable outcome partitions the line into two legal groups. *)
  let views = List.map Grp_node.view nodes in
  List.iter
    (fun v -> check "views bounded" true (Node_id.Set.cardinal v <= 3))
    views;
  let v0 = List.nth views 0 in
  check "node 0 grouped" true (Node_id.Set.cardinal v0 >= 2)

(* Table-driven membership re-validation (DESIGN.md Section 5, item 15).
   Phase 1 forms a real triangle {0,1,2}; phase 2 replaces b's and c's
   traffic with crafted messages and watches whether a retains member 2
   over a full re-validation window.  W = 2·Dmax+2 is the conviction /
   starvation window, so W+2 rounds decide every case. *)
let revalidation_cases =
  [
    (* Mate b still advertises 2 in its view: evidence refreshes every
       round and the member is kept even though 2 itself fell silent. *)
    ("mate still advertises: kept", true, [ 0; 1; 2 ], false, true);
    (* 2 vanished from b's view (though b's list still carries it, so
       presence-based retention alone would keep it): no admission
       evidence for a full window starves the membership out. *)
    ("vanished from all mates: dropped", true, [ 0; 1 ], false, false);
    (* Same starvation setup with the gate off: retention is presence
       based and the stale one-sided membership persists — the Pi-A
       failure mode the gate exists to close. *)
    ("gate off: stale membership persists", false, [ 0; 1 ], false, true);
    (* 2 keeps reporting directly but its view excludes me: firsthand
       exclusion convicts it within the window, overriding b's
       (secondhand) advertisement. *)
    ("firsthand exclusion: dropped", true, [ 0; 1; 2 ], true, false);
  ]

let test_membership_revalidation () =
  let dmax = 2 in
  let window = Priority.cooldown_window ~dmax in
  let prios ids = Message.priority_arrays (List.map (fun v -> (v, Priority.initial v)) ids) in
  List.iter
    (fun (name, gate, b_view, c_sends, expect_kept) ->
      let cfg = Config.make ~admission_gate_enabled:gate ~dmax () in
      let a = Grp_node.create ~config:cfg 0 in
      let b = Grp_node.create ~config:cfg 1 in
      let c = Grp_node.create ~config:cfg 2 in
      for _ = 1 to 10 do
        ignore (clique_round [ a; b; c ])
      done;
      let everyone = Node_id.set_of_list [ 0; 1; 2 ] in
      Alcotest.check ids (name ^ ": triangle formed") everyone (Grp_node.view a);
      for _ = 1 to window + 2 do
        (* b: a's group-mate; its list still lists 2 as clear, its view is
           the per-case testimony. *)
        Grp_node.receive a
          (Message.make ~sender:1
             ~antlist:
               (Antlist.of_levels
                  [ [ (1, Mark.Clear) ]; [ (0, Mark.Clear); (2, Mark.Clear) ] ])
             ~priority_ids:(fst (prios [ 1; 0; 2 ]))
             ~priorities:(snd (prios [ 1; 0; 2 ]))
             ~group_priority:(Priority.initial 0)
             ~view:(Array.of_list (List.sort_uniq Node_id.compare b_view)));
        if c_sends then
          (* c: still a direct neighbor acknowledging the link, but its
             view has moved on without me. *)
          Grp_node.receive a
            (Message.make ~sender:2
               ~antlist:
                 (Antlist.of_levels
                    [ [ (2, Mark.Clear) ]; [ (0, Mark.Clear); (1, Mark.Clear) ] ])
               ~priority_ids:(fst (prios [ 2; 0; 1 ]))
               ~priorities:(snd (prios [ 2; 0; 1 ]))
               ~group_priority:(Priority.initial 2)
               ~view:[| 2 |]);
        ignore (Grp_node.compute a)
      done;
      check (name ^ ": member 2 retention") expect_kept
        (Node_id.Set.mem 2 (Grp_node.view a));
      check (name ^ ": mate 1 always kept") true (Node_id.Set.mem 1 (Grp_node.view a)))
    revalidation_cases

let test_rounds_corruption_smoke () =
  let t =
    Dgs_sim.Rounds.create ~config:(config ~dmax:2 ()) (Dgs_graph.Gen.line 3)
  in
  let rng = Dgs_util.Rng.create 5 in
  (* High corruption: protocol must neither crash nor violate its local
     invariants. *)
  for _ = 1 to 60 do
    ignore (Dgs_sim.Rounds.round ~corruption:0.5 ~rng t)
  done;
  List.iter
    (fun v ->
      let n = Dgs_sim.Rounds.node t v in
      check "list bounded under corruption" true
        (Antlist.size (Grp_node.antlist n) <= 3))
    (Dgs_sim.Rounds.node_ids t)

(* Enforced contest-cooldown invariant (DESIGN.md Section 5, item 14): when
   the same far node w wins two too-far contests at the same node within a
   cooldown window, the wins must share a provider.  Winning repeatedly
   through the SAME cut is legitimate persistence (a geometrically
   infeasible straddle stays cut); displacing a disjoint, freshly formed
   pairing right away is the rotation signature, and [resolve_too_far]
   suppresses it.  Windows are counted in computes at the observing node
   (jitter skips computes, and the hold only decrements on compute). *)
let check_cooldown_invariant graph ~dmax ~seed ~jitter ~rounds =
  let t = Dgs_sim.Rounds.create ~config:(Config.make ~dmax ()) graph in
  let rng = Dgs_util.Rng.create seed in
  let window = Priority.cooldown_window ~dmax in
  (* (node, w) -> (compute index of last win, providers it cut) *)
  let last_win = Hashtbl.create 32 in
  let computes = Hashtbl.create 32 in
  let total = ref 0 in
  let ok = ref true in
  for _ = 1 to rounds do
    let infos = Dgs_sim.Rounds.round ~jitter ~rng t in
    Node_id.Map.iter
      (fun v (i : Grp_node.step_info) ->
        let k = 1 + Option.value ~default:0 (Hashtbl.find_opt computes v) in
        Hashtbl.replace computes v k;
        List.iter
          (fun (w, providers) ->
            incr total;
            (match Hashtbl.find_opt last_win (v, w) with
            | Some (k', providers')
              when k - k' < window && Node_id.Set.disjoint providers providers' ->
                ok := false
            | _ -> ());
            Hashtbl.replace last_win (v, w) (k, providers))
          i.Grp_node.contest_wins)
      infos
  done;
  (!ok, !total)

let test_cooldown_shares_provider =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"contest wins within a cooldown window share a provider" ~count:40
       QCheck.(triple (int_range 0 3) (int_range 1 1000) (int_range 2 3))
       (fun (topo, seed, dmax) ->
         let graph =
           match topo with
           | 0 -> Dgs_graph.Gen.group_loop ~groups:4 ~group_size:3
           | 1 -> Dgs_graph.Gen.grid 4 4
           | 2 -> Dgs_graph.Gen.ring (7 + (seed mod 4))
           | _ -> Dgs_graph.Gen.line (6 + (seed mod 5))
         in
         let ok, _ = check_cooldown_invariant graph ~dmax ~seed ~jitter:0.25 ~rounds:80 in
         ok))

let test_cooldown_invariant_not_vacuous () =
  (* Pin one configuration known to produce contests so the property above
     cannot silently pass on zero wins. *)
  let ok, total =
    check_cooldown_invariant (Dgs_graph.Gen.grid 4 4) ~dmax:2 ~seed:1 ~jitter:0.25
      ~rounds:80
  in
  check "invariant holds" true ok;
  check "contest wins observed" true (total > 0)

let test_list_size_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"computed lists never exceed Dmax+1 levels" ~count:50
       QCheck.(pair (int_range 1 4) (int_range 2 8))
       (fun (dmax, n) ->
         let cfg = Config.make ~dmax () in
         let nodes = List.init n (fun i -> Grp_node.create ~config:cfg i) in
         for _ = 1 to 8 do
           ignore (clique_round nodes)
         done;
         List.for_all
           (fun nd ->
             Antlist.size (Grp_node.antlist nd) <= dmax + 1
             && Antlist.well_formed (Grp_node.antlist nd))
           nodes))

let test_view_subset_of_clear_list =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"views are unmarked zero-quarantine list members" ~count:50
       QCheck.(int_range 2 8)
       (fun n ->
         let cfg = Config.make ~dmax:2 () in
         let nodes = List.init n (fun i -> Grp_node.create ~config:cfg i) in
         for _ = 1 to 6 do
           ignore (clique_round nodes)
         done;
         List.for_all
           (fun nd ->
             Node_id.Set.for_all
               (fun v ->
                 Node_id.Set.mem v (Antlist.clear_ids (Grp_node.antlist nd))
                 && Grp_node.quarantine_of nd v = Some 0)
               (Grp_node.view nd))
           nodes))

(* --- state snapshots --- *)

module Rng = Dgs_util.Rng
module Arbitrary = Dgs_check.Arbitrary

(* The quiescence signature that snapshots replaced: list, view and
   quarantine table rendered to one string, compared with
   [String.equal]. *)
let rendered n =
  let q =
    Node_id.Map.fold
      (fun u k acc -> acc ^ Printf.sprintf "%d:%d;" u k)
      (Grp_node.quarantines n) ""
  in
  Antlist.to_string (Grp_node.antlist n)
  ^ Format.asprintf "%a" Node_id.pp_set (Grp_node.view n)
  ^ q

let node_with id lst view q =
  let n = Grp_node.create ~config:(config ()) id in
  Grp_node.corrupt_list n lst;
  Grp_node.corrupt_view n view;
  Grp_node.corrupt_quarantine n q;
  n

let same a b = Grp_node.same_state (Grp_node.state a) (Grp_node.state b)
let draw_quarantine rng = List.init (Rng.int rng 4) (fun _ -> (Rng.int rng 6, Rng.int rng 3))

(* Equal copies, physically distinct; the set is rebuilt in descending
   insertion order. *)
let rebuilt_list l =
  Antlist.of_levels
    (List.map (List.map (fun (e : Antlist.entry) -> (e.id, e.mark))) (Antlist.levels l))

let rebuilt_view s =
  List.fold_left (fun acc v -> Node_id.Set.add v acc) Node_id.Set.empty
    (List.rev (Node_id.Set.elements s))

(* Each field of the second node is either an equal copy of the first's
   (the quarantine table re-inserted in descending order) or an
   independent draw from a domain small enough to collide often. *)
let test_same_state_is_rendered_equality =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"same_state holds exactly when the rendered states are equal"
       ~count:500 QCheck.(int_range 1 1_000_000)
       (fun seed ->
         let rng = Rng.create seed in
         let lst = Arbitrary.antlist rng in
         let view = Arbitrary.node_set rng ~max_id:4 in
         let a = node_with 0 lst view (draw_quarantine rng) in
         let lst' = if Rng.bool rng then rebuilt_list lst else Arbitrary.antlist rng in
         let view' = if Rng.bool rng then rebuilt_view view else Arbitrary.node_set rng ~max_id:4 in
         let q' =
           if Rng.bool rng then List.rev (Node_id.Map.bindings (Grp_node.quarantines a))
           else draw_quarantine rng
         in
         let id' = if Rng.int rng 8 = 0 then 1 else 0 in
         let b = node_with id' lst' view' q' in
         same a b = (id' = 0 && String.equal (rendered a) (rendered b))))

(* Equal views and quarantine tables whose trees differ in shape — the
   polymorphic [=] the round runner once compared tells them apart —
   are the same state. *)
let test_same_state_ignores_tree_shape () =
  let up = List.init 10 Fun.id in
  let add s v = Node_id.Set.add v s in
  let asc = List.fold_left add Node_id.Set.empty up in
  let desc = List.fold_left add Node_id.Set.empty (List.rev up) in
  let q = List.map (fun v -> (v, v mod 3)) up in
  let a = node_with 0 (Antlist.singleton 0) asc q in
  let b = node_with 0 (Antlist.singleton 0) desc (List.rev q) in
  check "view trees differ in shape" false (asc = desc);
  check "quarantine trees differ in shape" false
    (Grp_node.quarantines a = Grp_node.quarantines b);
  check "same state" true (same a b);
  check "a changed quarantine entry is a different state" false
    (same a (node_with 0 (Antlist.singleton 0) desc (List.rev q @ [ (3, 2) ])))

(* --- the k-way priority merge against the pairwise merge it replaced --- *)

(* The table as the fold of pairwise back-merges that [Grp_node] used to
   build: each sender's id-sorted arrays merged into the table in msgSet
   order (larger oldness wins, the earlier sender keeps a tie, the own
   entry is never replaced), then every sender's report about itself
   written over the gossip. *)
module Pairwise_priorities = struct
  type table = {
    mutable ids : Node_id.t array;
    mutable vals : Priority.t array;
    mutable clock : int;
  }

  let rec search (ids : Node_id.t array) v lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let c = Node_id.compare ids.(mid) v in
      if c = 0 then mid else if c < 0 then search ids v (mid + 1) hi else search ids v lo mid

  let merge_sender s ~me na (msg : Message.t) =
    let im = msg.Message.priority_ids and vm = msg.Message.priorities in
    let nm = Array.length im in
    if Array.length s.ids < na + nm then begin
      let ids = Array.make (na + nm) 0 and vals = Array.make (na + nm) Priority.lowest in
      Array.blit s.ids 0 ids 0 na;
      Array.blit s.vals 0 vals 0 na;
      s.ids <- ids;
      s.vals <- vals
    end;
    let ids = s.ids and vals = s.vals in
    let i = ref (na - 1) and j = ref (nm - 1) and k = ref (na + nm - 1) in
    while !j >= 0 do
      if !i >= 0 && Node_id.compare ids.(!i) im.(!j) > 0 then begin
        ids.(!k) <- ids.(!i);
        vals.(!k) <- vals.(!i);
        decr i
      end
      else begin
        let p = vm.(!j) in
        if p.Priority.oldness > s.clock then s.clock <- p.Priority.oldness;
        if !i >= 0 && Node_id.equal ids.(!i) im.(!j) then begin
          let q = vals.(!i) in
          vals.(!k) <-
            (if Node_id.equal ids.(!i) me || q.Priority.oldness >= p.Priority.oldness then q
             else p);
          ids.(!k) <- ids.(!i);
          decr i
        end
        else begin
          ids.(!k) <- im.(!j);
          vals.(!k) <- p
        end;
        decr j
      end;
      decr k
    done;
    let gap = !k - !i and tail = na + nm - 1 - !k in
    if gap > 0 then begin
      Array.blit ids (!k + 1) ids (!i + 1) tail;
      Array.blit vals (!k + 1) vals (!i + 1) tail
    end;
    na + nm - gap

  let table ~me ~own_priority (msgs : Message.t array) =
    let s = { ids = [| me |]; vals = [| own_priority |]; clock = 0 } in
    let n = Array.fold_left (fun n msg -> merge_sender s ~me n msg) 1 msgs in
    Array.iter
      (fun (msg : Message.t) ->
        let sender = msg.Message.sender and ids = msg.Message.priority_ids in
        let j = search ids sender 0 (Array.length ids) in
        if j >= 0 then s.vals.(search s.ids sender 0 n) <- msg.Message.priorities.(j))
      msgs;
    (Array.sub s.ids 0 n, Array.sub s.vals 0 n, s.clock)
end

(* msgSet from [me]'s neighborhood: distinct senders in increasing id
   order, each reporting a random subset of ids 0..9 with oldness in
   0..3 (so ties are common), usually its own id among them and often
   [me]. *)
let random_msgset rng ~me =
  let senders = List.filter (fun v -> v <> me && Rng.int rng 3 = 0) (List.init 10 Fun.id) in
  Array.of_list
    (List.map
       (fun sender ->
         let reported =
           List.filter
             (fun v -> (v = sender && Rng.int rng 4 > 0) || Rng.int rng 3 = 0)
             (List.init 10 Fun.id)
         in
         let priority_ids, priorities =
           Message.priority_arrays
             (List.map (fun v -> (v, Priority.make ~oldness:(Rng.int rng 4) ~id:v)) reported)
         in
         Message.make ~sender ~antlist:(Antlist.singleton sender) ~priority_ids ~priorities
           ~group_priority:Priority.lowest ~view:[| sender |])
       senders)

let test_priority_merge_matches_pairwise () =
  for seed = 0 to 999 do
    let rng = Rng.create seed in
    let me = Rng.int rng 10 in
    let own_priority = Priority.make ~oldness:(Rng.int rng 4) ~id:me in
    let msgs = random_msgset rng ~me in
    let ids, vals, clock = Grp_node.priority_table ~me ~own_priority msgs in
    let ids', vals', clock' = Pairwise_priorities.table ~me ~own_priority msgs in
    (* Physically: both tables hold the reports themselves, so a tie
       resolved to the wrong sender shows even between equal values. *)
    if not (ids = ids' && Array.for_all2 ( == ) vals vals' && clock = clock') then
      Alcotest.failf "seed %d: k-way table differs from the pairwise merge" seed;
    let i = Pairwise_priorities.search ids me 0 (Array.length ids) in
    if i < 0 || vals.(i) != own_priority then
      Alcotest.failf "seed %d: the own entry was replaced" seed
  done

(* Shared ids, an oldness tie and self-reports, by hand: node 0 hears 1
   and 2.  Both gossip 5 at oldness 3 (tie: the earlier sender, 1, keeps
   it); 2 reports 1 at oldness 9 but 1's report about itself (oldness 2)
   overrides; both gossip 0, which never replaces the own entry. *)
let test_priority_merge_rules () =
  let p oldness id = Priority.make ~oldness ~id in
  let msg sender table =
    let priority_ids, priorities = Message.priority_arrays table in
    Message.make ~sender ~antlist:(Antlist.singleton sender) ~priority_ids ~priorities
      ~group_priority:Priority.lowest ~view:[| sender |]
  in
  let five_from_1 = p 3 5 and five_from_2 = Priority.make ~oldness:3 ~id:5 in
  let msgs =
    [|
      msg 1 [ (0, p 7 0); (1, p 2 1); (5, five_from_1) ];
      msg 2 [ (0, p 8 0); (1, p 9 1); (2, p 4 2); (5, five_from_2) ];
    |]
  in
  let own_priority = p 1 0 in
  let ids, vals, clock = Grp_node.priority_table ~me:0 ~own_priority msgs in
  Alcotest.(check (array int)) "ids" [| 0; 1; 2; 5 |] ids;
  check "own entry kept" true (vals.(0) == own_priority);
  check "self-report overrides gossip" true (vals.(1) == msgs.(0).Message.priorities.(1));
  check "sender 2 about itself" true (Priority.equal vals.(2) (p 4 2));
  check "tie keeps the earlier sender" true (vals.(3) == five_from_1);
  check_int "clock: largest oldness gossiped" 9 clock

(* The merge stores ints only: the triple and the table copied out are
   all it allocates once the domain's scratch has grown. *)
let test_priority_merge_alloc () =
  let rng = Rng.create 7 in
  let msgs = random_msgset rng ~me:4 in
  let own_priority = Priority.initial 4 in
  let ids, _, _ = Grp_node.priority_table ~me:4 ~own_priority msgs in
  let n = Array.length ids in
  check "non-trivial table" true (n >= 5 && Array.length msgs >= 2);
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (Grp_node.priority_table ~me:4 ~own_priority msgs))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check (float 0.0)) "minor words per merge = two arrays and a triple"
    (float_of_int ((2 * (n + 1)) + 4)) per_call

(* A node keeps a message only until the compute that reads it: neither
   consumed inbox slots nor the slots a growing inbox fills may hold one.
   The messages come from throw-away peers, so the node's buffers are all
   that could keep them alive. *)
let deliver_tracked node w senders =
  List.iteri
    (fun i id ->
      let m = peer_msg id in
      Weak.set w i (Some m);
      Grp_node.receive node m)
    senders

(* The middle of the path 0-1-2 settled into one group at Dmax 3, after
   one more compute on its neighbours' last messages, which are tracked
   in [w], and an elided compute on them again.  The neighbours are
   dropped: the middle node is all that is returned. *)
let elided_middle w =
  let nodes = Array.init 3 (Grp_node.create ~config:(config ~dmax:3 ())) in
  for _ = 1 to 40 do
    let msgs = Array.map msg_of nodes in
    Grp_node.receive nodes.(0) msgs.(1);
    Grp_node.receive nodes.(1) msgs.(0);
    Grp_node.receive nodes.(1) msgs.(2);
    Grp_node.receive nodes.(2) msgs.(1);
    Array.iter (fun n -> ignore (Grp_node.compute n)) nodes
  done;
  let middle = nodes.(1) in
  let deliver () =
    Grp_node.receive middle (msg_of nodes.(0));
    Grp_node.receive middle (msg_of nodes.(2));
    Grp_node.compute middle
  in
  Weak.set w 0 (Some (msg_of nodes.(0)));
  Weak.set w 1 (Some (msg_of nodes.(2)));
  let step = deliver () in
  check "elided compute" true (deliver () == step);
  middle

let test_consumed_messages_released () =
  let a = Grp_node.create ~config:(config ()) 1 in
  let w = Weak.create 2 in
  deliver_tracked a w [ 2; 3 ];
  ignore (Grp_node.compute a);
  Grp_node.receive a (peer_msg 2);
  ignore (Grp_node.compute a);
  Gc.full_major ();
  check "sender 2's first message collected" false (Weak.check w 0);
  check "sender 3's message collected" false (Weak.check w 1);
  ignore (Sys.opaque_identity a);
  (* An elided compute keeps nothing either, once a compute with fewer
     senders has replaced its fixpoint. *)
  let w = Weak.create 2 in
  let middle = elided_middle w in
  Grp_node.receive middle (peer_msg 0);
  ignore (Grp_node.compute middle);
  Gc.full_major ();
  check "sender 0's elided message collected" false (Weak.check w 0);
  check "sender 2's elided message collected" false (Weak.check w 1);
  ignore (Sys.opaque_identity middle)

(* A message that arrived in a round whose compute was skipped stays
   buffered, and the next compute folds it. *)
let test_pending_message_kept () =
  let a = Grp_node.create ~config:(config ()) 1 in
  let w = Weak.create 1 in
  deliver_tracked a w [ 2 ];
  Gc.full_major ();
  check "unread message kept" true (Weak.check w 0);
  Alcotest.check ids "sender buffered" (Node_id.Set.singleton 2) (Grp_node.pending_senders a);
  ignore (Grp_node.compute a);
  check "next compute folds it" true (Antlist.mem (Grp_node.antlist a) 2)

let suite =
  [
    ("create", `Quick, test_create);
    ("receive keeps last message", `Quick, test_receive_keeps_last);
    ("receive ignores self", `Quick, test_receive_ignores_self);
    ("msgSet reset after compute", `Quick, test_msgset_reset_after_compute);
    ("consumed messages are released", `Quick, test_consumed_messages_released);
    ("unread message is kept and folded", `Quick, test_pending_message_kept);
    ("triple handshake marks", `Quick, test_handshake_marks);
    ("quarantine delays admission", `Quick, test_quarantine_delays_admission);
    ("quarantine ablation", `Quick, test_no_quarantine_ablation);
    ("goodList", `Quick, test_good_list);
    ("compatibleList basic", `Quick, test_compatible_list_basic);
    ("corrupted list repeating an id: held, echo at its undoubled level", `Quick,
      test_corrupt_list_repeated_id);
    ("compatibleList rejects overflow", `Quick, test_compatible_list_rejects_overflow);
    ("pair at Dmax=1", `Quick, test_pair_formation_dmax1);
    ("triangle at Dmax=1", `Quick, test_triangle_formation_dmax1);
    ("priority freezes in group", `Quick, test_priority_freezes_in_group);
    ("priority bumps while solo", `Quick, test_solo_priority_bumps);
    ("lamport clock sync", `Quick, test_lamport_sync);
    ("group priority is min", `Quick, test_group_priority_is_min);
    ("message contents", `Quick, test_message_contents);
    ("step info reports view changes", `Quick, test_step_info_reports_changes);
    ("silence evicts a neighbor", `Quick, test_silence_evicts);
    ("corrupted state recovers", `Quick, test_corrupt_state_recovers);
    ("admission gate (optional)", `Quick, test_admission_gate);
    ("asymmetric link never groups", `Quick, test_asymmetric_link_never_groups);
    ("too-far contest on a line", `Quick, test_too_far_contest_truncates_for_winner);
    ("membership re-validation table", `Quick, test_membership_revalidation);
    ("rounds under heavy corruption", `Quick, test_rounds_corruption_smoke);
    test_list_size_invariant;
    test_view_subset_of_clear_list;
    test_cooldown_shares_provider;
    ("cooldown invariant is not vacuous", `Quick, test_cooldown_invariant_not_vacuous);
    test_same_state_is_rendered_equality;
    ("same_state ignores tree shape", `Quick, test_same_state_ignores_tree_shape);
    ("k-way priority merge matches pairwise", `Quick, test_priority_merge_matches_pairwise);
    ("priority merge rules", `Quick, test_priority_merge_rules);
    ("priority merge allocates only its table", `Quick, test_priority_merge_alloc);
  ]
