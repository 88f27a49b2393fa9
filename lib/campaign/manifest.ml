module J = Smt_obs.Obs_json

let schema_version = 1

type t = {
  m_version : int;
  m_tag : string;
  m_circuits : string list;
  m_techniques : string list;
  m_guards : string list;
  m_seeds : int list;
}

let make ~tag ~circuits ~techniques ~guards ~seeds =
  {
    m_version = schema_version;
    m_tag = tag;
    m_circuits = circuits;
    m_techniques = techniques;
    m_guards = guards;
    m_seeds = seeds;
  }

let jobs m =
  Job.matrix ~circuits:m.m_circuits ~techniques:m.m_techniques ~guards:m.m_guards
    ~seeds:m.m_seeds

let path dir = Filename.concat dir "campaign.json"

let to_json m =
  J.obj
    [
      ("schema_version", string_of_int m.m_version);
      ("tag", J.str m.m_tag);
      ("circuits", J.arr (List.map J.str m.m_circuits));
      ("techniques", J.arr (List.map J.str m.m_techniques));
      ("guards", J.arr (List.map J.str m.m_guards));
      ("seeds", J.arr (List.map string_of_int m.m_seeds));
    ]

let write dir m = J.write_durable (path dir) (to_json m ^ "\n")

let load dir =
  let open J.Decode in
  let manifest v =
    {
      m_version = field "schema_version" (schema schema_version) v;
      m_tag = field "tag" string v;
      m_circuits = field "circuits" (list string) v;
      m_techniques = field "techniques" (list string) v;
      m_guards = field "guards" (list string) v;
      m_seeds = field "seeds" (list int) v;
    }
  in
  decode_file manifest (path dir)
