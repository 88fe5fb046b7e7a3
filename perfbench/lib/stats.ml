(* Host clock and the order statistics the benchmark reports. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Time [f ()] in host nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p = function
  | [] -> invalid_arg "Stats.percentile: no samples"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

(* Median: the mean of the two middle values for an even count. *)
let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Mean of the middle half (between the quartiles): robust like the
   median, but it does not snap to the clock's integer ticks. *)
let midmean = function
  | [] -> invalid_arg "Stats.midmean: no samples"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    let lo = n / 4 and hi = max (n / 4 + 1) (n - (n / 4)) in
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      sum := !sum +. a.(i)
    done;
    !sum /. float_of_int (hi - lo)

(* A tail percentile resolves only with at least ten samples beyond it. *)
let tail_resolved ~p n = float_of_int n *. (1.0 -. p) >= 10.0
