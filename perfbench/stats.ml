(* Order statistics over float samples. *)

(* Nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it; 0 for no samples. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

(* [stat] of each of [windows] consecutive slices of [xs], which are in
   time order, and the median of those: a stall of the host that falls
   in one slice moves that slice's figure, not the result.  Fewer
   samples than windows make one slice. *)
let windowed ~windows stat xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n < windows then stat xs
  else
    median
      (List.init windows (fun w ->
           let lo = w * n / windows and hi = (w + 1) * n / windows in
           stat (Array.to_list (Array.sub a lo (hi - lo)))))
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b > 0.0 then a /. b else 0.0

(* Sustained rate of a closed loop: consecutive [(seconds, work)]
   steps are grouped into chunks of at least [span] seconds, and the
   median of the chunks' rates is returned, so a burst of load from
   outside the benchmark moves one chunk, not the result.  A trailing
   partial chunk counts only when no chunk is complete. *)
let median_rate ~span steps =
  let rec go acc t w = function
    | [] -> if acc = [] && t > 0.0 then [ w /. t ] else acc
    | (dt, dw) :: rest ->
        let t = t +. dt and w = w +. dw in
        if t >= span then go ((w /. t) :: acc) 0.0 0.0 rest else go acc t w rest
  in
  median (go [] 0.0 0.0 steps)
