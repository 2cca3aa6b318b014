module Json = Ndroid_report.Json

type counter = { mutable c_value : int }

let n_buckets = 48

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  h_buckets : int array;  (* log2 buckets over the value in integer units *)
}

type t = {
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_value = 0 } in
    Hashtbl.replace t.counters name c;
    c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = { h_count = 0; h_sum = 0.0; h_buckets = Array.make n_buckets 0 } in
    Hashtbl.replace t.histograms name h;
    h

(* bucket k holds values v with 2^(k-1) <= v < 2^k (bucket 0: v <= 0) *)
let bucket_of_int v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (n_buckets - 1) (bits v 0)
  end

let observe_int h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. float_of_int v;
  let b = bucket_of_int v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

(* float observations (latencies in seconds) are bucketed in microseconds *)
let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  let b = bucket_of_int (int_of_float (v *. 1e6)) in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

let counters t =
  Hashtbl.fold (fun k c acc -> (k, c.c_value) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_to_json h =
  (* drop the all-zero tail so small registries stay readable *)
  let last = ref 0 in
  Array.iteri (fun i n -> if n > 0 then last := i) h.h_buckets;
  let buckets =
    Array.to_list (Array.sub h.h_buckets 0 (!last + 1))
    |> List.map (fun n -> Json.Int n)
  in
  Json.Obj
    [ ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("buckets", Json.List buckets) ]

let to_json t =
  let cs =
    Hashtbl.fold (fun k c acc -> (k, Json.Int c.c_value) :: acc) t.counters []
  in
  let hs =
    Hashtbl.fold (fun k h acc -> (k, hist_to_json h) :: acc) t.histograms []
  in
  Json.Obj [ ("counters", Json.Obj cs); ("histograms", Json.Obj hs) ]

(* Direct registry-into-registry merge: the worker domains hand whole
   registries back by reference, so aggregation pays no serialize/parse
   tax. *)
let merge t src =
  Hashtbl.iter (fun k c -> add (counter t k) c.c_value) src.counters;
  Hashtbl.iter
    (fun k h ->
      let dst = histogram t k in
      dst.h_count <- dst.h_count + h.h_count;
      dst.h_sum <- dst.h_sum +. h.h_sum;
      Array.iteri
        (fun i n -> dst.h_buckets.(i) <- dst.h_buckets.(i) + n)
        h.h_buckets)
    src.histograms
