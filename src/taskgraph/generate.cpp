#include "taskgraph/generate.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tamp::taskgraph {

TaskGraph generate_task_graph(const mesh::Mesh& mesh,
                              const std::vector<part_t>& domain_of_cell,
                              part_t ndomains, const GenerateOptions& opts,
                              ClassMap* class_map) {
  TAMP_EXPECTS(domain_of_cell.size() ==
                   static_cast<std::size_t>(mesh.num_cells()),
               "domain vector size must equal cell count");
  TAMP_EXPECTS(ndomains >= 1, "need at least one domain");

  TAMP_TRACE_SCOPE("taskgraph/generate");

  const ClassIndexer cls{ndomains,
                         static_cast<level_t>(mesh.max_level() + 1)};
  const ObjectClasses oc = classify(Classifier{mesh, domain_of_cell, cls});
  if (class_map != nullptr)
    build_class_lists(mesh, oc, cls.count(), *class_map);

  std::vector<std::uint64_t> pairs;
  pairs.reserve(2 * oc.face.size());
  for (index_t f = 0; f < mesh.num_faces(); ++f)
    for_each_class_pair(mesh, oc.cell, f, oc.face[static_cast<std::size_t>(f)],
                        [&](std::uint64_t p) { pairs.push_back(p); });
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  TaskGraph graph = emit_task_graph(
      cls, class_populations(oc.cell, cls.count()),
      class_populations(oc.face, cls.count()),
      build_class_adjacency(pairs, cls.count()), opts,
      class_map != nullptr ? &class_map->task_class : nullptr);
  TAMP_METRIC_COUNT("taskgraph.tasks", graph.num_tasks());
  TAMP_METRIC_COUNT("taskgraph.dependencies", graph.num_dependencies());
  return graph;
}

std::vector<index_t> class_populations(const std::vector<index_t>& object_class,
                                       index_t nclasses) {
  std::vector<index_t> count(static_cast<std::size_t>(nclasses), 0);
  for (const index_t k : object_class) ++count[static_cast<std::size_t>(k)];
  return count;
}

void build_class_lists(const mesh::Mesh& mesh, const ObjectClasses& oc,
                       index_t nclasses, ClassMap& classes) {
  const auto n = static_cast<std::size_t>(nclasses);
  classes.class_cells.assign(n, {});
  classes.class_faces.assign(n, {});
  for (std::size_t c = 0; c < oc.cell.size(); ++c)
    classes.class_cells[static_cast<std::size_t>(oc.cell[c])].push_back(
        static_cast<index_t>(c));
  for (std::size_t f = 0; f < oc.face.size(); ++f)
    classes.class_faces[static_cast<std::size_t>(oc.face[f])].push_back(
        static_cast<index_t>(f));
  classes.cell_range.assign(n, {});
  classes.face_range.assign(n, {});
  for (index_t k = 0; k < nclasses; ++k) detect_class_ranges(mesh, classes, k);
}

void detect_class_ranges(const mesh::Mesh& mesh, ClassMap& classes,
                         index_t k) {
  // Lists are kept in ascending id order, so one span check per list
  // detects a consecutive run.
  const auto sk = static_cast<std::size_t>(k);
  classes.cell_range[sk] = {};
  classes.face_range[sk] = {};
  const auto& cells = classes.class_cells[sk];
  if (!cells.empty() &&
      cells.back() - cells.front() + 1 == static_cast<index_t>(cells.size()))
    classes.cell_range[sk] = {cells.front(), cells.back() + 1};
  const auto& faces = classes.class_faces[sk];
  if (faces.empty() ||
      faces.back() - faces.front() + 1 != static_cast<index_t>(faces.size()))
    return;
  const auto boundary_it =
      std::find_if(faces.begin(), faces.end(),
                   [&](index_t f) { return mesh.is_boundary_face(f); });
  if (std::all_of(boundary_it, faces.end(),
                  [&](index_t f) { return mesh.is_boundary_face(f); }))
    classes.face_range[sk] = {
        faces.front(),
        faces.front() + static_cast<index_t>(boundary_it - faces.begin()),
        faces.back() + 1};
}

ClassAdjacency build_class_adjacency(const std::vector<std::uint64_t>& pairs,
                                     index_t nclasses) {
  const auto n = static_cast<std::size_t>(nclasses);
  // One counting sort per direction: `from` selects the row of a pair,
  // `to` its entry.
  auto csr = [&](auto from, auto to, std::vector<eindex_t>& xadj,
                 std::vector<index_t>& adj) {
    xadj.assign(n + 1, 0);
    for (const std::uint64_t p : pairs)
      ++xadj[static_cast<std::size_t>(from(p)) + 1];
    for (std::size_t i = 0; i < n; ++i) xadj[i + 1] += xadj[i];
    adj.resize(pairs.size());
    std::vector<eindex_t> cursor(xadj.begin(), xadj.end() - 1);
    for (const std::uint64_t p : pairs)
      adj[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(from(p))]++)] = to(p);
  };
  const auto face_of = [](std::uint64_t p) {
    return static_cast<index_t>(p >> 32);
  };
  const auto cell_of = [](std::uint64_t p) {
    return static_cast<index_t>(p & 0xffffffffULL);
  };
  ClassAdjacency a;
  csr(face_of, cell_of, a.f2c_xadj, a.f2c);
  csr(cell_of, face_of, a.c2f_xadj, a.c2f);
  return a;
}

TaskGraph emit_task_graph(ClassIndexer cls,
                          const std::vector<index_t>& cell_count,
                          const std::vector<index_t>& face_count,
                          const ClassAdjacency& adj,
                          const GenerateOptions& opts,
                          std::vector<index_t>* task_class) {
  TAMP_EXPECTS(opts.num_iterations >= 1, "need at least one iteration");
  const TemporalScheme scheme(cls.nlev);
  std::vector<Task> tasks;
  std::vector<std::vector<index_t>> deps;
  if (task_class != nullptr) task_class->clear();
  std::vector<index_t> last_cell_writer(static_cast<std::size_t>(cls.count()),
                                        invalid_index);
  std::vector<index_t> last_face_writer(static_cast<std::size_t>(cls.count()),
                                        invalid_index);

  auto emit = [&](index_t s, level_t tau, ObjectType type, part_t d,
                  Locality loc) {
    const index_t cid = cls.id(d, tau, loc);
    const auto scid = static_cast<std::size_t>(cid);
    const bool face = type == ObjectType::face;
    const index_t count = face ? face_count[scid] : cell_count[scid];
    if (count == 0) return;  // Algorithm 1 line 6: skip empty classes

    Task task;
    task.subiteration = s;
    task.level = tau;
    task.type = type;
    task.locality = loc;
    task.domain = d;
    task.num_objects = count;
    task.cost = static_cast<simtime_t>(count) *
                (face ? opts.cost.face_unit : opts.cost.cell_unit);

    // Previous values: the last writer of this class. Neighbour values:
    // the last writers of the adjacent classes of the other type.
    auto& own_writer = face ? last_face_writer : last_cell_writer;
    const auto& other_writer = face ? last_cell_writer : last_face_writer;
    const auto& xadj = face ? adj.f2c_xadj : adj.c2f_xadj;
    const auto& nbrs = face ? adj.f2c : adj.c2f;
    std::vector<index_t> dep;
    if (own_writer[scid] != invalid_index) dep.push_back(own_writer[scid]);
    for (eindex_t i = xadj[scid]; i < xadj[scid + 1]; ++i) {
      const index_t w =
          other_writer[static_cast<std::size_t>(nbrs[static_cast<std::size_t>(i)])];
      if (w != invalid_index) dep.push_back(w);
    }
    own_writer[scid] = static_cast<index_t>(tasks.size());
    tasks.push_back(task);
    deps.push_back(std::move(dep));
    if (task_class != nullptr) task_class->push_back(cid);
  };

  for (int iter = 0; iter < opts.num_iterations; ++iter) {
    for (index_t s = 0; s < scheme.num_subiterations(); ++s) {
      for (level_t tau = scheme.top_level(s);; --tau) {  // descending phases
        for (const ObjectType type : {ObjectType::face, ObjectType::cell}) {
          for (part_t d = 0; d < cls.ndomains; ++d) {
            emit(s, tau, type, d, Locality::external);
            emit(s, tau, type, d, Locality::internal);
          }
        }
        if (tau == 0) break;
      }
    }
  }
  return TaskGraph(std::move(tasks), deps);
}

std::vector<simtime_t> work_per_subiteration(const TaskGraph& graph) {
  index_t nsub = 0;
  for (const Task& t : graph.tasks())
    nsub = std::max(nsub, t.subiteration + 1);
  std::vector<simtime_t> work(static_cast<std::size_t>(nsub), 0);
  for (const Task& t : graph.tasks())
    work[static_cast<std::size_t>(t.subiteration)] += t.cost;
  return work;
}

std::vector<simtime_t> work_per_process_subiteration(
    const TaskGraph& graph, const std::vector<part_t>& domain_to_process,
    part_t nprocesses) {
  index_t nsub = 0;
  for (const Task& t : graph.tasks())
    nsub = std::max(nsub, t.subiteration + 1);
  std::vector<simtime_t> work(
      static_cast<std::size_t>(nprocesses) * static_cast<std::size_t>(nsub), 0);
  for (const Task& t : graph.tasks()) {
    TAMP_EXPECTS(static_cast<std::size_t>(t.domain) < domain_to_process.size(),
                 "task domain outside process map");
    const part_t p = domain_to_process[static_cast<std::size_t>(t.domain)];
    work[static_cast<std::size_t>(p) * nsub +
         static_cast<std::size_t>(t.subiteration)] += t.cost;
  }
  return work;
}

}  // namespace tamp::taskgraph
