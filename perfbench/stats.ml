(* Order statistics over measured samples. A failed request enters as
   [infinity]: it misses every latency limit. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* linear interpolation between closest ranks *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1)
    else
      let frac = h -. float_of_int i in
      if frac = 0. then a.(i)
      else if a.(i + 1) = infinity then infinity
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n


(* ------------------------------------------------------------------ *)
(* Harrell–Davis quantile: a Beta-weighted average of all order
   statistics instead of the one or two nearest ranks. Same target (the
   p-quantile), much lower variance in the tail, which is what run-to-run
   comparisons of a p99 need. A failed sample ([infinity]) with any
   weight makes the estimate infinite. *)

(* log Γ(x), Lanczos approximation (g = 7, n = 9) *)
let rec log_gamma x =
  if x < 0.5 then log (Float.pi /. Float.abs (sin (Float.pi *. x))) -. log_gamma (1. -. x)
  else
    let c =
      [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
         -176.61502916214059; 12.507343278686905; -0.13857109526572012;
         9.9843695780195716e-6; 1.5056327351493116e-7 |]
    in
    let x = x -. 1. in
    let a = ref c.(0) in
    let t = x +. 7.5 in
    for i = 1 to 8 do
      a := !a +. (c.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* continued fraction for the incomplete beta function *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. and d = ref (1. -. (qab *. x /. qap)) in
  if Float.abs !d < tiny then d := tiny;
  d := 1. /. !d;
  let h = ref !d in
  (try
     for m = 1 to 300 do
       let m = float_of_int m in
       let m2 = 2. *. m in
       let aa = m *. (b -. m) *. x /. ((qam +. m2) *. (a +. m2)) in
       d := 1. +. (aa *. !d);
       if Float.abs !d < tiny then d := tiny;
       c := 1. +. (aa /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1. /. !d;
       h := !h *. !d *. !c;
       let aa = -.(a +. m) *. (qab +. m) *. x /. ((a +. m2) *. (qap +. m2)) in
       d := 1. +. (aa *. !d);
       if Float.abs !d < tiny then d := tiny;
       c := 1. +. (aa /. !c);
       if Float.abs !c < tiny then c := tiny;
       d := 1. /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.) < 1e-12 then raise Exit
     done
   with Exit -> ());
  !h

(* regularized incomplete beta I_x(a, b) *)
let beta_inc a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. beta_cf a b x /. a
    else 1. -. (front *. beta_cf b a (1. -. x) /. b)

let hd_quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let n1 = float_of_int (n + 1) in
    let alpha = p *. n1 and beta = (1. -. p) *. n1 in
    let acc = ref 0. and prev = ref 0. in
    for i = 1 to n do
      let cdf = beta_inc alpha beta (float_of_int i /. float_of_int n) in
      let w = cdf -. !prev in
      prev := cdf;
      if w > 1e-12 then acc := !acc +. (w *. a.(i - 1))
    done;
    !acc
  end

(* The latency percentiles a run reports: the median, and p90 — the
   highest percentile with at least ten samples beyond it in a window of
   100 requests. [xs] is in arrival order. A phase of n requests is cut
   into k = min 8 (n / 100) consecutive windows and the figure is the
   median of the windows' estimates: a burst that stalls the whole box
   for a moment (the host's, not the server's) lands in one window and
   moves the median little, where it would move a pooled p90 a lot. *)
let windowed p xs =
  let n = Array.length xs in
  let k = max 1 (min 8 (n / 100)) in
  median (Array.init k (fun w -> hd_quantile (Array.sub xs (w * n / k) (((w + 1) * n / k) - (w * n / k))) p))

let p50 xs = windowed 0.5 xs

let p90 xs = windowed 0.9 xs
