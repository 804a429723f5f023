(* Provenance convention: every broadcast gets a campaign-unique lineage id
   [lid] (packed [(src lsl 20) lor k] with k a per-source counter; [-1] when
   tracing is off).  Derived events carry the lineage of the message that
   caused them in [cause]; [-1] means "no recorded cause".  JSONL omits the
   field at [-1] so pre-provenance traces round-trip unchanged. *)

type event =
  | Msg_sent of { src : int; lid : int }
  | Msg_delivered of { src : int; dst : int; cause : int }
  | Msg_lost of { src : int; dst : int; cause : int }
  | Msg_dropped of { src : int; dst : int; cause : int }
  | View_changed of {
      node : int;
      added : int list;
      removed : int list;
      view : int list;
      cause : int;
    }
  | Quarantine_enter of { node : int; member : int; remaining : int; cause : int }
  | Quarantine_admit of { node : int; member : int; cause : int }
  | Mark_set of { node : int; peer : int; mark : string; cause : int }
  | Mark_cleared of { node : int; peer : int; cause : int }
  | Merge_attempt of { node : int; sender : int; cause : int }
  | Merge_accepted of { node : int; sender : int; cause : int }
  | Gate_conviction of { node : int; peer : int; cause : int }
  | Contest_win of { node : int; far : int; cause : int }
  | Contest_freeze of { node : int; far : int; cause : int }

let kind = function
  | Msg_sent _ -> "Msg_sent"
  | Msg_delivered _ -> "Msg_delivered"
  | Msg_lost _ -> "Msg_lost"
  | Msg_dropped _ -> "Msg_dropped"
  | View_changed _ -> "View_changed"
  | Quarantine_enter _ -> "Quarantine_enter"
  | Quarantine_admit _ -> "Quarantine_admit"
  | Mark_set _ -> "Mark_set"
  | Mark_cleared _ -> "Mark_cleared"
  | Merge_attempt _ -> "Merge_attempt"
  | Merge_accepted _ -> "Merge_accepted"
  | Gate_conviction _ -> "Gate_conviction"
  | Contest_win _ -> "Contest_win"
  | Contest_freeze _ -> "Contest_freeze"

let kinds =
  [
    "Msg_sent";
    "Msg_delivered";
    "Msg_lost";
    "Msg_dropped";
    "View_changed";
    "Quarantine_enter";
    "Quarantine_admit";
    "Mark_set";
    "Mark_cleared";
    "Merge_attempt";
    "Merge_accepted";
    "Gate_conviction";
    "Contest_win";
    "Contest_freeze";
  ]

let node_of = function
  | Msg_sent { src; _ } -> src
  | Msg_delivered { dst; _ } | Msg_lost { dst; _ } | Msg_dropped { dst; _ } -> dst
  | View_changed { node; _ }
  | Quarantine_enter { node; _ }
  | Quarantine_admit { node; _ }
  | Mark_set { node; _ }
  | Mark_cleared { node; _ }
  | Merge_attempt { node; _ }
  | Merge_accepted { node; _ }
  | Gate_conviction { node; _ }
  | Contest_win { node; _ }
  | Contest_freeze { node; _ } ->
      node

let cause_of = function
  | Msg_delivered { cause; _ }
  | Msg_lost { cause; _ }
  | Msg_dropped { cause; _ }
  | View_changed { cause; _ }
  | Quarantine_enter { cause; _ }
  | Quarantine_admit { cause; _ }
  | Mark_set { cause; _ }
  | Mark_cleared { cause; _ }
  | Merge_attempt { cause; _ }
  | Merge_accepted { cause; _ }
  | Gate_conviction { cause; _ }
  | Contest_win { cause; _ }
  | Contest_freeze { cause; _ } ->
      cause
  | Msg_sent _ -> -1

let lid_of = function Msg_sent { lid; _ } -> lid | _ -> -1

let mint_lid counters ~src =
  let k = match Hashtbl.find_opt counters src with Some k -> k | None -> 0 in
  Hashtbl.replace counters src (k + 1);
  (src lsl 20) lor k

let pp_ints ppf ids =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int ids))

let pp_event ppf = function
  | Msg_sent { src; _ } -> Format.fprintf ppf "Msg_sent(src=%d)" src
  | Msg_delivered { src; dst; _ } -> Format.fprintf ppf "Msg_delivered(%d->%d)" src dst
  | Msg_lost { src; dst; _ } -> Format.fprintf ppf "Msg_lost(%d->%d)" src dst
  | Msg_dropped { src; dst; _ } -> Format.fprintf ppf "Msg_dropped(%d->%d)" src dst
  | View_changed { node; added; removed; view; _ } ->
      Format.fprintf ppf "View_changed(node=%d,+%a,-%a,view=%a)" node pp_ints added
        pp_ints removed pp_ints view
  | Quarantine_enter { node; member; remaining; _ } ->
      Format.fprintf ppf "Quarantine_enter(node=%d,member=%d,remaining=%d)" node member
        remaining
  | Quarantine_admit { node; member; _ } ->
      Format.fprintf ppf "Quarantine_admit(node=%d,member=%d)" node member
  | Mark_set { node; peer; mark; _ } ->
      Format.fprintf ppf "Mark_set(node=%d,peer=%d,%s)" node peer mark
  | Mark_cleared { node; peer; _ } ->
      Format.fprintf ppf "Mark_cleared(node=%d,peer=%d)" node peer
  | Merge_attempt { node; sender; _ } ->
      Format.fprintf ppf "Merge_attempt(node=%d,sender=%d)" node sender
  | Merge_accepted { node; sender; _ } ->
      Format.fprintf ppf "Merge_accepted(node=%d,sender=%d)" node sender
  | Gate_conviction { node; peer; _ } ->
      Format.fprintf ppf "Gate_conviction(node=%d,peer=%d)" node peer
  | Contest_win { node; far; _ } ->
      Format.fprintf ppf "Contest_win(node=%d,far=%d)" node far
  | Contest_freeze { node; far; _ } ->
      Format.fprintf ppf "Contest_freeze(node=%d,far=%d)" node far

(* --- sink handles --- *)

type t = {
  mutable time : float;
  enabled : bool;
  emit_fn : float -> event -> unit;
}

let null = { time = 0.0; enabled = false; emit_fn = (fun _ _ -> ()) }
let make f = { time = 0.0; enabled = true; emit_fn = (fun time ev -> f ~time ev) }
let enabled t = t.enabled
let set_time t time = t.time <- time
let emit t ev = if t.enabled then t.emit_fn t.time ev

let tee a b =
  if not (a.enabled || b.enabled) then null
  else
    {
      time = 0.0;
      enabled = true;
      emit_fn =
        (fun time ev ->
          if a.enabled then a.emit_fn time ev;
          if b.enabled then b.emit_fn time ev);
    }

let filter pred inner =
  if not inner.enabled then null
  else
    {
      time = 0.0;
      enabled = true;
      emit_fn = (fun time ev -> if pred ev then inner.emit_fn time ev);
    }

let filter_kinds names inner =
  let norm = String.lowercase_ascii in
  let known = List.map norm kinds in
  let names = List.map norm names in
  List.iter
    (fun n ->
      if not (List.mem n known) then
        invalid_arg
          (Printf.sprintf "Trace.filter_kinds: unknown event kind %S (try: %s)" n
             (String.concat ", " kinds)))
    names;
  filter (fun ev -> List.mem (norm (kind ev)) names) inner

(* --- ring sink --- *)

module Ring = struct

  type t = {
    data : (float * event) array;
    capacity : int;
    mutable seen : int;
  }

  let dummy = (0.0, Msg_sent { src = 0; lid = -1 })

  let create ~capacity =
    if capacity < 1 then invalid_arg "Trace.Ring.create: capacity must be >= 1";
    { data = Array.make capacity dummy; capacity; seen = 0 }

  let sink r =
    make (fun ~time ev ->
        r.data.(r.seen mod r.capacity) <- (time, ev);
        r.seen <- r.seen + 1)

  let length r = min r.seen r.capacity
  let seen r = r.seen

  let contents r =
    let n = length r in
    let start = if r.seen <= r.capacity then 0 else r.seen mod r.capacity in
    List.init n (fun i -> r.data.((start + i) mod r.capacity))

  let clear r = r.seen <- 0
end

(* --- JSONL sink --- *)

module Jsonl = struct
  module Json = Dgs_util.Json

  let int i = Json.Num (float_of_int i)
  let ints ids = Json.Arr (List.map int ids)

  (* Provenance fields are omitted at [-1] so traces recorded before the
     lineage layer (and runs without it) keep their exact old schema. *)
  let opt name v tail = if v >= 0 then (name, int v) :: tail else tail

  let fields = function
    | Msg_sent { src; lid } -> ("src", int src) :: opt "lid" lid []
    | Msg_delivered { src; dst; cause }
    | Msg_lost { src; dst; cause }
    | Msg_dropped { src; dst; cause } ->
        ("src", int src) :: ("dst", int dst) :: opt "cause" cause []
    | View_changed { node; added; removed; view; cause } ->
        ("node", int node)
        :: ("added", ints added)
        :: ("removed", ints removed)
        :: ("view", ints view)
        :: opt "cause" cause []
    | Quarantine_enter { node; member; remaining; cause } ->
        ("node", int node)
        :: ("member", int member)
        :: ("remaining", int remaining)
        :: opt "cause" cause []
    | Quarantine_admit { node; member; cause } ->
        ("node", int node) :: ("member", int member) :: opt "cause" cause []
    | Mark_set { node; peer; mark; cause } ->
        ("node", int node)
        :: ("peer", int peer)
        :: ("mark", Json.Str mark)
        :: opt "cause" cause []
    | Mark_cleared { node; peer; cause } | Gate_conviction { node; peer; cause } ->
        ("node", int node) :: ("peer", int peer) :: opt "cause" cause []
    | Merge_attempt { node; sender; cause } | Merge_accepted { node; sender; cause } ->
        ("node", int node) :: ("sender", int sender) :: opt "cause" cause []
    | Contest_win { node; far; cause } | Contest_freeze { node; far; cause } ->
        ("node", int node) :: ("far", int far) :: opt "cause" cause []

  let to_string time ev =
    Json.to_string
      (Json.Obj (("t", Json.Num time) :: ("ev", Json.Str (kind ev)) :: fields ev))

  exception Bad

  let decode pairs =
    let get k = match List.assoc_opt k pairs with Some v -> v | None -> raise Bad in
    let num k = match get k with Json.Num x -> x | _ -> raise Bad in
    let int k = int_of_float (num k) in
    let str k = match get k with Json.Str x -> x | _ -> raise Bad in
    let arr k =
      match get k with
      | Json.Arr xs ->
          List.map (function Json.Num x -> int_of_float x | _ -> raise Bad) xs
      | _ -> raise Bad
    in
    (* Provenance fields default to -1 so pre-lineage traces load. *)
    let prov k =
      match List.assoc_opt k pairs with Some (Json.Num x) -> int_of_float x | _ -> -1
    in
    let cause = prov "cause" in
    let ev =
      match str "ev" with
      | "Msg_sent" -> Msg_sent { src = int "src"; lid = prov "lid" }
      | "Msg_delivered" -> Msg_delivered { src = int "src"; dst = int "dst"; cause }
      | "Msg_lost" -> Msg_lost { src = int "src"; dst = int "dst"; cause }
      | "Msg_dropped" -> Msg_dropped { src = int "src"; dst = int "dst"; cause }
      | "View_changed" ->
          View_changed
            {
              node = int "node";
              added = arr "added";
              removed = arr "removed";
              view = arr "view";
              cause;
            }
      | "Quarantine_enter" ->
          Quarantine_enter
            {
              node = int "node";
              member = int "member";
              remaining = int "remaining";
              cause;
            }
      | "Quarantine_admit" ->
          Quarantine_admit { node = int "node"; member = int "member"; cause }
      | "Mark_set" ->
          Mark_set { node = int "node"; peer = int "peer"; mark = str "mark"; cause }
      | "Mark_cleared" -> Mark_cleared { node = int "node"; peer = int "peer"; cause }
      | "Merge_attempt" ->
          Merge_attempt { node = int "node"; sender = int "sender"; cause }
      | "Merge_accepted" ->
          Merge_accepted { node = int "node"; sender = int "sender"; cause }
      | "Gate_conviction" ->
          Gate_conviction { node = int "node"; peer = int "peer"; cause }
      | "Contest_win" -> Contest_win { node = int "node"; far = int "far"; cause }
      | "Contest_freeze" -> Contest_freeze { node = int "node"; far = int "far"; cause }
      | _ -> raise Bad
    in
    (num "t", ev)

  let of_string line =
    match Json.of_string line with
    | Some (Json.Obj pairs) -> ( try Some (decode pairs) with Bad -> None)
    | _ -> None

  let sink oc =
    make (fun ~time ev ->
        output_string oc (to_string time ev);
        output_char oc '\n')

  let with_file path f =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (sink oc))

  let load path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> (
              match of_string line with
              | Some pair -> go (pair :: acc)
              | None -> go acc)
        in
        go [])
end

(* --- rotating JSONL sink --- *)

module Rotating = struct

  type t = {
    path : string;
    max_bytes : int;
    keep : int;
    mutable oc : out_channel;
    mutable bytes : int;
    mutable rotations : int;
  }

  let slot t i = if i = 0 then t.path else t.path ^ "." ^ string_of_int i

  let create ~path ~max_bytes ~keep =
    if max_bytes < 1 then invalid_arg "Trace.Rotating.create: max_bytes must be >= 1";
    if keep < 1 then invalid_arg "Trace.Rotating.create: keep must be >= 1";
    { path; max_bytes; keep; oc = open_out path; bytes = 0; rotations = 0 }

  (* Shift path.(keep-1) .. path.1, path down one slot (the oldest falls
     off the end) and reopen a fresh [path]. *)
  let rotate t =
    close_out t.oc;
    let last = slot t (t.keep - 1) in
    if Sys.file_exists last then Sys.remove last;
    for i = t.keep - 2 downto 0 do
      let from = slot t i in
      if Sys.file_exists from then Sys.rename from (slot t (i + 1))
    done;
    t.oc <- open_out t.path;
    t.bytes <- 0;
    t.rotations <- t.rotations + 1

  let sink t =
    make (fun ~time ev ->
        let line = Jsonl.to_string time ev in
        let len = String.length line + 1 in
        if t.bytes > 0 && t.bytes + len > t.max_bytes then rotate t;
        output_string t.oc line;
        output_char t.oc '\n';
        t.bytes <- t.bytes + len)

  let rotations t = t.rotations
  let close t = close_out t.oc

  let with_file path ~max_bytes ~keep f =
    let t = create ~path ~max_bytes ~keep in
    Fun.protect ~finally:(fun () -> close t) (fun () -> f (sink t))
end
