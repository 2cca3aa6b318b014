(* cfbench_ndroid: the paper's CF-Bench categories (Fig. 10) on one
   booted device with full NDroid attached.  Each category is one JNI
   crossing into a long native (or Java) loop, so the per-instruction
   ARM / emulator / taint path carries almost all of the cost and device
   boot almost none.  The traced run also runs each category on a Vanilla
   device, in the same process, for the Fig. 10 slowdowns.

   Unit of work: one category run.  ops_per_s is category runs per
   second of a pass over all categories, the median over passes; p50_ms
   and p99_ms are per-run wall times. *)

module H = Ndroid_apps.Harness
module CF = Ndroid_apps.Cfbench
module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Vm = Ndroid_dalvik.Vm
module Ndroid = Ndroid_core.Ndroid
module Verdict = Ndroid_report.Verdict

(* Fixed iterations per category run, by kind. *)
let iterations (w : CF.workload) =
  match w.CF.w_kind with CF.Native -> 2_000 | CF.Java -> 8_000

(* Passes over all categories per second the run length is sized with
   (2-core x86-64). *)
let nominal_passes_per_s = 15.0

let workloads = Array.of_list CF.workloads
let names = Array.of_list Catalog.cfbench_categories

type device = { d_device : Device.t; d_ndroid : Ndroid.t option }

let boot ~ndroid =
  let device = H.boot CF.app in
  CF.prepare device;
  let nd =
    if ndroid then Some (Ndroid.attach device)
    else (Ndroid_taintdroid.Taintdroid.vanilla device; None)
  in
  { d_device = device; d_ndroid = nd }

(* One category run: wall seconds, native instructions NDroid traced and
   Dalvik bytecodes executed. *)
let run_category d (w : CF.workload) =
  let c = (Device.vm d.d_device).Vm.counters in
  let insns () =
    match d.d_ndroid with Some nd -> (Ndroid.stats nd).Ndroid.traced_instructions | None -> 0
  in
  let b0 = c.Vm.bytecodes and n0 = insns () in
  let t0 = Bench.now () in
  w.CF.w_run d.d_device ~iterations:(iterations w);
  let dt = Bench.now () -. t0 in
  (dt, insns () - n0, c.Vm.bytecodes - b0)

let pass d = Array.iter (fun w -> ignore (run_category d w)) workloads

(* Set-up: boot, prepare the SD card and attach NDroid. *)
let setup () = boot ~ndroid:true

(* Each category must execute exactly the same work on every pass, and
   NDroid must see no leak in the benchmark app. *)
type counts = { mutable first : (int * int) option; mutable repeats : bool }

let check counts i got =
  match counts.(i).first with
  | None -> counts.(i).first <- Some got
  | Some c -> if c <> got then counts.(i).repeats <- false

let leak_free d =
  match d.d_ndroid with
  | Some nd -> not (Verdict.flagged (Ndroid.verdict nd))
  | None -> true

let new_counts () =
  Array.init (Array.length workloads) (fun _ -> { first = None; repeats = true })

(* Every run of a category whose counts did not repeat is a failed
   operation, and every run is when NDroid saw a leak. *)
let failures d counts ~passes =
  if not (leak_free d) then passes * Array.length workloads
  else Array.fold_left (fun a c -> if c.repeats then a else a + passes) 0 counts

let traced d ~passes =
  let vanilla = boot ~ndroid:false in
  pass vanilla;
  let counts = new_counts () in
  let k = Array.length workloads in
  let nd_s = Array.make k 0.0 and van_s = Array.make k 0.0 in
  let untraced = ref 0.0 in
  let machine = Device.machine d.d_device in
  let hits0, misses0 = Machine.icache_stats machine in
  let req = ref 0 in
  for _ = 1 to passes do
    Array.iteri
      (fun i w ->
        let dv, _, _ = run_category vanilla w in
        van_s.(i) <- van_s.(i) +. dv;
        let du, _, _ = run_category d w in
        untraced := !untraced +. du;
        let dt, ni, bc =
          Bench.request !req "category" (fun () ->
              Bench.span ("cfbench." ^ names.(i)) (fun () -> run_category d w))
        in
        incr req;
        nd_s.(i) <- nd_s.(i) +. dt;
        check counts i (ni, bc))
      workloads
  done;
  let hits1, misses1 = Machine.icache_stats machine in
  let hits = hits1 - hits0 and misses = misses1 - misses0 in
  let per_pass x = x /. float_of_int passes in
  let kind_ratio kind =
    Bench.geomean
      (Array.of_list
         (List.filteri (fun i _ -> workloads.(i).CF.w_kind = kind)
            (Array.to_list (Array.mapi (fun i s -> s /. van_s.(i)) nd_s))))
  in
  let native_insns = ref 0 and native_s = ref 0.0 in
  Array.iteri
    (fun i (w : CF.workload) ->
      if w.CF.w_kind = CF.Native then begin
        native_insns := !native_insns + (fst (Option.get counts.(i).first) * passes);
        native_s := !native_s +. nd_s.(i)
      end)
    workloads;
  let failed = failures d counts ~passes in
  let per_category =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i name ->
              let ni, bc = Option.get counts.(i).first in
              [ (Printf.sprintf "cfbench.%s_s" name, per_pass nd_s.(i));
                (Printf.sprintf "cfbench.%s_native_insns" name, float_of_int ni);
                (Printf.sprintf "cfbench.%s_bytecodes" name, float_of_int bc) ])
            names))
  in
  { Bench.attempted = passes * k;
    failed;
    correct = failed = 0;
    values =
      per_category
      @ [ ("emulator.native_mips", float_of_int !native_insns /. !native_s /. 1e6);
          ("arm.icache_hit_ratio", float_of_int hits /. float_of_int (hits + misses));
          ("cfbench.slowdown_native", kind_ratio CF.Native);
          ("cfbench.slowdown_java", kind_ratio CF.Java);
          ("trace.overhead_ratio", Bench.span_seconds "category" /. !untraced);
          ("trace.coverage_ratio", Bench.coverage "category") ] }

let run ~seed:_ ~seconds ~trace =
  let setup_s, d = Bench.median_setup setup in
  (* one untimed pass warms the device up *)
  pass d;
  let k = Array.length workloads in
  let passes =
    Bench.repetitions ~seconds ~ops_per_s:(nominal_passes_per_s *. float_of_int k)
      ~per_unit:k
  in
  if trace then traced d ~passes:(max 1 (passes / 3))
  else begin
    let n = passes * k in
    let lat = Array.make n 0.0 in
    let counts = new_counts () in
    for p = 0 to passes - 1 do
      Array.iteri
        (fun i w ->
          let dt, ni, bc = run_category d w in
          lat.((p * k) + i) <- dt;
          check counts i (ni, bc))
        workloads
    done;
    let failed = failures d counts ~passes in
    { Bench.attempted = n;
      failed;
      correct = failed = 0;
      values =
        [ ("setup_s", setup_s);
          ("peak_rss_mb", Bench.peak_rss_mb ());
          ("ops_per_s", Bench.grouped_rate ~per:k lat);
          ("p50_ms", 1000.0 *. Bench.median lat);
          ("p99_ms", 1000.0 *. Bench.window_p99 lat) ] }
  end
