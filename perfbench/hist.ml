(* Log-linear latency histogram: exact below [2 * sub] ns, then [sub] buckets
   per power of two (relative error under 1/sub). Fixed size, so recording
   in the timed window never allocates. *)

let sub_bits = 6
let sub = 1 lsl sub_bits
let n_buckets = sub * 58

type t = int array

let create () : t = Array.make n_buckets 0

let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

(* Values in [2^m, 2^(m+1)) with m >= sub_bits keep their top
   [sub_bits + 1] bits: bucket e * sub + (v lsr e) with e = m - sub_bits. *)
let bucket v =
  let v = max v 0 in
  let e = max 0 (msb v 0 - sub_bits) in
  (e * sub) + (v lsr e)

let lower i =
  let e = max 0 ((i / sub) - 1) in
  (i - (e * sub)) lsl e

let width i = if i < 2 * sub then 1 else 1 lsl ((i / sub) - 1)

let record (h : t) v =
  let i = bucket v in
  h.(i) <- h.(i) + 1

let merge (hs : t list) : t =
  let r = create () in
  List.iter (Array.iteri (fun i n -> r.(i) <- r.(i) + n)) hs;
  r

let count (h : t) = Array.fold_left ( + ) 0 h

(* The [q]-quantile, interpolated linearly inside its bucket. *)
let quantile (h : t) q =
  let n = count h in
  if n = 0 then 0.
  else
    let target = Float.max 1. (q *. float_of_int n) in
    let rec go i acc =
      let next = acc + h.(i) in
      if float_of_int next >= target || i = n_buckets - 1 then
        float_of_int (lower i)
        +. (target -. float_of_int acc)
           /. float_of_int (max 1 h.(i))
           *. float_of_int (width i)
      else go (i + 1) next
    in
    go 0 0
