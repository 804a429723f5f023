include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v land max_int
end)
