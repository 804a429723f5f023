type t = int

let compare = Int.compare
let equal = Int.equal
let pp = Format.pp_print_int

module Set = Dgs_util.Int_set
module Map = Map.Make (Int)

module Tbl = Dgs_util.Int_tbl

let set_of_list l = Set.of_list l

let pp_set ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp)
    (Set.elements s)
