(* Live handles are plain mutable records guarded by an [on] flag baked in
   at registration time, so the disabled path of every hot operation is one
   load and branch — the Trace.null discipline.  The registry itself is a
   set of name-interned handle tables; snapshots sort them so exports are
   deterministic. *)

let now_ns () = Unix.gettimeofday () *. 1e9

module Counter = struct
  type t = { on : bool; mutable n : int }

  let incr c = if c.on then c.n <- c.n + 1
  let add c k = if c.on then c.n <- c.n + k
  let value c = c.n
  let disabled = { on = false; n = 0 }
  let make () = { on = true; n = 0 }
end

module Gauge = struct
  type t = { on : bool; mutable v : float }

  let set g v = if g.on then g.v <- v
  let value g = g.v
  let disabled = { on = false; v = 0.0 }
  let make () = { on = true; v = 0.0 }
end

module Timer = struct
  type t = { on : bool; mutable spans : int; mutable total : float; mutable max : float }

  let start tm = if tm.on then now_ns () else 0.0

  let stop tm t0 =
    if tm.on then begin
      let d = now_ns () -. t0 in
      tm.spans <- tm.spans + 1;
      tm.total <- tm.total +. d;
      if d > tm.max then tm.max <- d
    end

  let lap tm t0 =
    if tm.on then begin
      let t1 = now_ns () in
      let d = t1 -. t0 in
      tm.spans <- tm.spans + 1;
      tm.total <- tm.total +. d;
      if d > tm.max then tm.max <- d;
      t1
    end
    else 0.0

  let time tm f =
    let t0 = start tm in
    Fun.protect ~finally:(fun () -> stop tm t0) f

  let count tm = tm.spans
  let total_ns tm = tm.total
  let disabled = { on = false; spans = 0; total = 0.0; max = 0.0 }
  let make () = { on = true; spans = 0; total = 0.0; max = 0.0 }
end

module Hist = struct
  type t = {
    on : bool;
    bin_width : float;
    bins : (int, int) Hashtbl.t;
    mutable n : int;
  }

  let observe h x =
    if h.on then begin
      let bin = int_of_float (floor (x /. h.bin_width)) in
      Hashtbl.replace h.bins bin
        (1 + Option.value ~default:0 (Hashtbl.find_opt h.bins bin));
      h.n <- h.n + 1
    end

  let observe_int h x = observe h (float_of_int x)
  let count h = h.n
  let disabled = { on = false; bin_width = 1.0; bins = Hashtbl.create 1; n = 0 }

  let make bin_width =
    if bin_width <= 0.0 then
      invalid_arg "Registry.histogram: bin width must be positive";
    { on = true; bin_width; bins = Hashtbl.create 16; n = 0 }
end

type t = {
  enabled : bool;
  counters : (string, Counter.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  timers : (string, Timer.t) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let null =
  {
    enabled = false;
    counters = Hashtbl.create 1;
    gauges = Hashtbl.create 1;
    timers = Hashtbl.create 1;
    hists = Hashtbl.create 1;
  }

let create () =
  {
    enabled = true;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    timers = Hashtbl.create 8;
    hists = Hashtbl.create 8;
  }

let enabled t = t.enabled

let labelled name = function
  | [] -> name
  | labels ->
      let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
      name ^ "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let intern tbl name make disabled live =
  if not live then disabled
  else
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
        let h = make () in
        Hashtbl.replace tbl name h;
        h

let counter t name =
  intern t.counters name Counter.make Counter.disabled t.enabled

let gauge t name = intern t.gauges name Gauge.make Gauge.disabled t.enabled
let timer t name = intern t.timers name Timer.make Timer.disabled t.enabled

let histogram ?(bin_width = 1.0) t name =
  if not t.enabled then Hist.disabled
  else
    match Hashtbl.find_opt t.hists name with
    | Some h ->
        if h.Hist.bin_width <> bin_width then
          invalid_arg
            (Printf.sprintf
               "Registry.histogram: %s already registered with bin width %g"
               name h.Hist.bin_width);
        h
    | None ->
        let h = Hist.make bin_width in
        Hashtbl.replace t.hists name h;
        h

(* --- snapshots --- *)

type timer_stat = { spans : int; total_ns : float; max_ns : float }

type snapshot = {
  cores : int;
  jobs : int option;
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stat) list;
  histograms : (string * (float * (float * int) list)) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot ?jobs (t : t) =
  {
    cores = Domain.recommended_domain_count ();
    jobs;
    counters = sorted_bindings t.counters (fun c -> c.Counter.n);
    gauges = sorted_bindings t.gauges (fun g -> g.Gauge.v);
    timers =
      sorted_bindings t.timers (fun tm ->
          {
            spans = tm.Timer.spans;
            total_ns = tm.Timer.total;
            max_ns = tm.Timer.max;
          });
    histograms =
      sorted_bindings t.hists (fun h ->
          ( h.Hist.bin_width,
            Hashtbl.fold
              (fun b c acc -> (float_of_int b *. h.Hist.bin_width, c) :: acc)
              h.Hist.bins []
            |> List.sort compare ));
  }

let empty_snapshot =
  { cores = 0; jobs = None; counters = []; gauges = []; timers = []; histograms = [] }

(* Merge two sorted assoc lists pointwise. *)
let rec merge_assoc f xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | (kx, vx) :: xs', (ky, vy) :: ys' ->
      let c = compare kx ky in
      if c = 0 then (kx, f kx vx vy) :: merge_assoc f xs' ys'
      else if c < 0 then (kx, vx) :: merge_assoc f xs' ys
      else (ky, vy) :: merge_assoc f xs ys'

let merge_bins = merge_assoc (fun _ a b -> a + b)

let merge2 a b =
  {
    cores = max a.cores b.cores;
    jobs = (match a.jobs with Some _ -> a.jobs | None -> b.jobs);
    counters = merge_assoc (fun _ x y -> x + y) a.counters b.counters;
    gauges = merge_assoc (fun _ x y -> Float.max x y) a.gauges b.gauges;
    timers =
      merge_assoc
        (fun _ x y ->
          {
            spans = x.spans + y.spans;
            total_ns = x.total_ns +. y.total_ns;
            max_ns = Float.max x.max_ns y.max_ns;
          })
        a.timers b.timers;
    histograms =
      merge_assoc
        (fun name (wx, bx) (wy, by) ->
          if wx <> wy then
            invalid_arg
              (Printf.sprintf "Registry.merge: histogram %s bin widths differ" name);
          (wx, merge_bins bx by))
        a.histograms b.histograms;
  }

let merge = List.fold_left merge2 empty_snapshot

(* --- JSON --- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let obj buf fields emit =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf (json_escape name);
      Buffer.add_string buf "\":";
      emit buf v)
    fields;
  Buffer.add_char buf '}'

let counters_to_json s =
  let buf = Buffer.create 256 in
  obj buf s.counters (fun b n -> Buffer.add_string b (string_of_int n));
  Buffer.contents buf

let to_json s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\":1,\"cores\":";
  Buffer.add_string buf (string_of_int s.cores);
  Buffer.add_string buf ",\"jobs\":";
  Buffer.add_string buf
    (match s.jobs with None -> "null" | Some j -> string_of_int j);
  Buffer.add_string buf ",\"counters\":";
  Buffer.add_string buf (counters_to_json s);
  Buffer.add_string buf ",\"gauges\":";
  obj buf s.gauges (fun b v -> Buffer.add_string b (json_num v));
  Buffer.add_string buf ",\"timers_ns\":";
  obj buf s.timers (fun b t ->
      Buffer.add_string b
        (Printf.sprintf "{\"count\":%d,\"total\":%s,\"max\":%s}" t.spans
           (json_num t.total_ns) (json_num t.max_ns)));
  Buffer.add_string buf ",\"histograms\":";
  obj buf s.histograms (fun b (w, bins) ->
      Buffer.add_string b "{\"bin_width\":";
      Buffer.add_string b (json_num w);
      Buffer.add_string b ",\"bins\":[";
      List.iteri
        (fun i (lo, c) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "[%s,%d]" (json_num lo) c))
        bins;
      Buffer.add_string b "]}");
  Buffer.add_char buf '}';
  Buffer.contents buf

(* --- Prometheus text exposition --- *)

let family name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

let to_prometheus s =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line fam kind =
    if not (Hashtbl.mem typed fam) then begin
      Hashtbl.replace typed fam ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam kind)
    end
  in
  Buffer.add_string buf
    (Printf.sprintf "# HELP dgs_host cores=%d jobs=%s\n" s.cores
       (match s.jobs with None -> "-" | Some j -> string_of_int j));
  List.iter
    (fun (name, n) ->
      type_line (family name) "counter";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name n))
    s.counters;
  List.iter
    (fun (name, v) ->
      type_line (family name) "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %s\n" name (json_num v)))
    s.gauges;
  List.iter
    (fun (name, t) ->
      type_line (family name) "summary";
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name t.spans);
      Buffer.add_string buf
        (Printf.sprintf "%s_total_ns %s\n" name (json_num t.total_ns));
      Buffer.add_string buf
        (Printf.sprintf "%s_max_ns %s\n" name (json_num t.max_ns)))
    s.timers;
  List.iter
    (fun (name, (w, bins)) ->
      type_line (family name) "histogram";
      let cum = ref 0 in
      List.iter
        (fun (lo, c) ->
          cum := !cum + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=%S} %d\n" name (json_num (lo +. w)) !cum))
        bins;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name !cum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name !cum))
    s.histograms;
  Buffer.contents buf

(* --- minimal JSON parser for snapshot_of_json --- *)

type jv =
  | Jnull
  | Jnum of float
  | Jstr of string
  | Jarr of jv list
  | Jobj of (string * jv) list

exception Bad

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise Bad in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r')
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise Bad;
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              (* \uXXXX: only the ASCII range our emitter produces. *)
              if !pos + 4 >= n then raise Bad;
              let hex = String.sub s (!pos + 1) 4 in
              advance ();
              advance ();
              advance ();
              advance ();
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
              | _ -> raise Bad)
          | _ -> raise Bad);
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    if !pos = start then raise Bad;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> raise Bad
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Jstr (parse_string ())
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (
          advance ();
          Jobj [])
        else begin
          let pairs = ref [] in
          let continue = ref true in
          while !continue do
            skip_ws ();
            let key = parse_string () in
            expect ':';
            let v = parse_value () in
            pairs := (key, v) :: !pairs;
            skip_ws ();
            match peek () with
            | ',' -> advance ()
            | '}' ->
                advance ();
                continue := false
            | _ -> raise Bad
          done;
          Jobj (List.rev !pairs)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (
          advance ();
          Jarr [])
        else begin
          let items = ref [] in
          let continue = ref true in
          while !continue do
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance ()
            | ']' ->
                advance ();
                continue := false
            | _ -> raise Bad
          done;
          Jarr (List.rev !items)
        end
    | 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
          pos := !pos + 4;
          Jnull
        end
        else raise Bad
    | 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
          pos := !pos + 4;
          Jnum 1.0
        end
        else raise Bad
    | 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
          pos := !pos + 5;
          Jnum 0.0
        end
        else raise Bad
    | _ -> Jnum (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise Bad;
  v

let snapshot_of_json line =
  match parse_json line with
  | exception Bad -> None
  | Jobj fields -> (
      let find k = List.assoc_opt k fields in
      let objf k =
        match find k with Some (Jobj o) -> o | None -> [] | _ -> raise Bad
      in
      match
        let cores =
          match find "cores" with Some (Jnum x) -> int_of_float x | _ -> 0
        in
        let jobs =
          match find "jobs" with
          | Some (Jnum x) -> Some (int_of_float x)
          | _ -> None
        in
        let counters =
          List.map
            (function k, Jnum x -> (k, int_of_float x) | _ -> raise Bad)
            (objf "counters")
        in
        let gauges =
          List.map
            (function k, Jnum x -> (k, x) | _ -> raise Bad)
            (objf "gauges")
        in
        let timers =
          List.map
            (function
              | k, Jobj t ->
                  let num key =
                    match List.assoc_opt key t with
                    | Some (Jnum x) -> x
                    | _ -> raise Bad
                  in
                  ( k,
                    {
                      spans = int_of_float (num "count");
                      total_ns = num "total";
                      max_ns = num "max";
                    } )
              | _ -> raise Bad)
            (objf "timers_ns")
        in
        let histograms =
          List.map
            (function
              | k, Jobj h ->
                  let w =
                    match List.assoc_opt "bin_width" h with
                    | Some (Jnum x) -> x
                    | _ -> raise Bad
                  in
                  let bins =
                    match List.assoc_opt "bins" h with
                    | Some (Jarr items) ->
                        List.map
                          (function
                            | Jarr [ Jnum lo; Jnum c ] -> (lo, int_of_float c)
                            | _ -> raise Bad)
                          items
                    | _ -> raise Bad
                  in
                  (k, (w, bins))
              | _ -> raise Bad)
            (objf "histograms")
        in
        { cores; jobs; counters; gauges; timers; histograms }
      with
      | exception Bad -> None
      | s -> Some s)
  | _ -> None
