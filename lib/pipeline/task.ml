module Json = Ndroid_report.Json
module Market = Ndroid_corpus.Market

type mode = Static | Dynamic | Both | Hybrid

type subject =
  | Bundled of string
  | Market of { m_total : int; m_seed : int; m_permille : int option;
                m_id : int }

type fault = Crash | Hang | Sleep of float

type t = {
  t_id : int;
  t_subject : subject;
  t_mode : mode;
  t_fault : fault option;
}

let mode_name = function
  | Static -> "static"
  | Dynamic -> "dynamic"
  | Both -> "both"
  | Hybrid -> "hybrid"

let mode_of_name = function
  | "static" -> Some Static
  | "dynamic" -> Some Dynamic
  | "both" -> Some Both
  | "hybrid" -> Some Hybrid
  | _ -> None

let market_params ~total ~seed ~permille =
  { Market.total; seed; type1_permille = permille }

let market_model ~total ~seed ~permille id =
  Market.app (market_params ~total ~seed ~permille) id

let subject_name = function
  | Bundled name -> name
  | Market { m_total; m_seed; m_permille; m_id } ->
    (market_model ~total:m_total ~seed:m_seed ~permille:m_permille m_id)
      .Ndroid_corpus.App_model.package

let of_market_slice ?(mode = Static) (params : Market.params) =
  List.init params.Market.total (fun id ->
      { t_id = id;
        t_subject =
          Market
            { m_total = params.Market.total; m_seed = params.Market.seed;
              m_permille = params.Market.type1_permille; m_id = id };
        t_mode = mode;
        t_fault = None })

let subject_to_json = function
  | Bundled name ->
    Json.Obj [ ("kind", Json.Str "bundled"); ("name", Json.Str name) ]
  | Market { m_total; m_seed; m_permille; m_id } ->
    Json.Obj
      [ ("kind", Json.Str "market");
        ("total", Json.Int m_total);
        ("seed", Json.Int m_seed);
        ("permille",
         match m_permille with Some p -> Json.Int p | None -> Json.Null);
        ("id", Json.Int m_id) ]

let fault_to_json = function
  | None -> Json.Null
  | Some Crash -> Json.Str "crash"
  | Some Hang -> Json.Str "hang"
  | Some (Sleep s) -> Json.Obj [ ("sleep", Json.Float s) ]

let ( let* ) = Result.bind

let req_int name j =
  match Option.bind (Json.member name j) Json.int with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "task is missing int field %S" name)

let fault_of_json = function
  | None | Some Json.Null -> Ok None
  | Some (Json.Str "crash") -> Ok (Some Crash)
  | Some (Json.Str "hang") -> Ok (Some Hang)
  | Some (Json.Obj _ as o) -> (
    match Json.member "sleep" o with
    | Some (Json.Float s) -> Ok (Some (Sleep s))
    | Some (Json.Int s) -> Ok (Some (Sleep (float_of_int s)))
    | _ -> Error "bad task fault")
  | Some _ -> Error "bad task fault"

let subject_of_json s =
  match Option.bind (Json.member "kind" s) Json.str with
  | Some "bundled" -> (
    match Option.bind (Json.member "name" s) Json.str with
    | Some name -> Ok (Bundled name)
    | None -> Error "bundled subject is missing its name")
  | Some "market" ->
    let* total = req_int "total" s in
    let* seed = req_int "seed" s in
    let* mid = req_int "id" s in
    let permille = Option.bind (Json.member "permille" s) Json.int in
    Ok (Market { m_total = total; m_seed = seed; m_permille = permille;
                 m_id = mid })
  | _ -> Error "unknown subject kind"
