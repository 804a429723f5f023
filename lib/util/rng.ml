type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }
let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = mix64 (bits64 t) }

(* [split] advances the state by one gamma and mixes twice, so the i-th
   sequential split of a generator in state [s] is fully determined by
   [s + (i+1)*gamma] — which lets a work pool hand task [i] its generator
   directly, without threading the master through the tasks in schedule
   order. *)
let split_at t i =
  if i < 0 then invalid_arg "Rng.split_at: negative index";
  {
    state =
      mix64
        (mix64 (Int64.add t.state (Int64.mul (Int64.of_int (i + 1)) golden_gamma)));
  }

(* Non-negative 62-bit int extracted from the top bits.  62 and not 63
   because [1 lsl 62] is [min_int] on 63-bit native ints — every scaling
   constant below must avoid that overflow. *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let two_pow_62 = Float.ldexp 1.0 62

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias; [bits] ranges over
     [0, 2^62 - 1]. *)
  let max_bits = max_int in
  (* = 2^62 - 1 on 64-bit platforms, the range of [bits] *)
  let limit = max_bits - (max_bits mod bound) in
  let rec draw () =
    let r = bits t in
    if r >= limit then draw () else r mod bound
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound = bound *. (float_of_int (bits t) /. two_pow_62)
let float_in t lo hi = lo +. float t (hi -. lo)
let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t 1.0 < p

(* Written so that NaN fails: every comparison with NaN is false. *)
let check_rate what p =
  if not (0.0 <= p && p <= 1.0) then invalid_arg (what ^ " out of [0,1]")

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u <= 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
