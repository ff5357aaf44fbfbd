#include "solver/layout.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "taskgraph/generate.hpp"
#include "verify/access.hpp"

namespace tamp::solver {

KernelGeometry build_kernel_geometry(const mesh::Mesh& mesh,
                                     eindex_t side_offset) {
  TAMP_EXPECTS(side_offset >= 0, "side offset must be non-negative");
  const index_t ncells = mesh.num_cells();
  const index_t nfaces = mesh.num_faces();
  const auto sc = static_cast<std::size_t>(ncells);
  const auto sf = static_cast<std::size_t>(nfaces);

  KernelGeometry g;
  g.face_a.resize(sf);
  g.face_b.resize(sf);
  g.nx.resize(sf);
  g.ny.resize(sf);
  g.nz.resize(sf);
  g.area.resize(sf);
  g.dist.resize(sf);
  for (index_t f = 0; f < nfaces; ++f) {
    const auto i = static_cast<std::size_t>(f);
    const index_t a = mesh.face_cell(f, 0);
    const index_t b = mesh.face_cell(f, 1);
    g.face_a[i] = a;
    g.face_b[i] = b;
    const mesh::Vec3 n = mesh.face_normal(f);
    g.nx[i] = n.x;
    g.ny[i] = n.y;
    g.nz[i] = n.z;
    g.area[i] = mesh.face_area(f);
    // The same clamped two-point distance the transport diffusive flux
    // computed inline; 1.0 at boundaries where no kernel reads it.
    g.dist[i] = b == invalid_index
                    ? 1.0
                    : std::max(distance(mesh.cell_centroid(a),
                                        mesh.cell_centroid(b)),
                               1e-300);
  }

  g.inv_vol.resize(sc);
  for (index_t c = 0; c < ncells; ++c)
    g.inv_vol[static_cast<std::size_t>(c)] = 1.0 / mesh.cell_volume(c);

  g.gather_xadj.resize(sc + 1);
  g.gather_xadj[0] = 0;
  for (index_t c = 0; c < ncells; ++c)
    g.gather_xadj[static_cast<std::size_t>(c) + 1] =
        g.gather_xadj[static_cast<std::size_t>(c)] +
        static_cast<eindex_t>(mesh.cell_faces(c).size());
  const auto nentries = static_cast<std::size_t>(g.gather_xadj[sc]);
  g.gather_slot.reserve(nentries);
  g.gather_sign.reserve(nentries);
  for (index_t c = 0; c < ncells; ++c)
    for (const index_t f : mesh.cell_faces(c)) {
      const bool side1 = mesh.face_cell(f, 0) != c;
      const eindex_t slot =
          static_cast<eindex_t>(f) + (side1 ? side_offset : 0);
      TAMP_EXPECTS(slot <= std::numeric_limits<index_t>::max(),
                   "accumulator slot overflows 32-bit gather index");
      g.gather_slot.push_back(static_cast<index_t>(slot));
      g.gather_sign.push_back(side1 ? 1.0 : -1.0);
    }
  return g;
}

std::vector<IdRange> compress_to_ranges(std::vector<index_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<IdRange> runs;
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[j - 1] + 1) ++j;
    runs.push_back({ids[i], ids[j - 1] + 1});
    i = j;
  }
  return runs;
}

ClassAccessTable build_class_access_ranges(
    const mesh::Mesh& mesh, const taskgraph::ClassMap& classes) {
  const std::size_t nclasses = classes.class_cells.size();
  TAMP_EXPECTS(classes.class_faces.size() == nclasses &&
                   classes.cell_range.size() == nclasses &&
                   classes.face_range.size() == nclasses,
               "inconsistent ClassMap");
  ClassAccessTable table;
  table.face.resize(nclasses);
  table.cell.resize(nclasses);
  std::vector<index_t> scratch;
  for (std::size_t k = 0; k < nclasses; ++k) {
    const taskgraph::ClassMap::FaceRange& fr = classes.face_range[k];
    if (fr.valid()) {
      // Face task: reads the adjacent cells, writes its faces' slots.
      ClassAccessRanges& entry = table.face[k];
      scratch.clear();
      for (index_t f = fr.begin; f < fr.end; ++f) {
        scratch.push_back(mesh.face_cell(f, 0));
        if (f < fr.boundary_begin) scratch.push_back(mesh.face_cell(f, 1));
      }
      entry.cells = compress_to_ranges(scratch);
      entry.acc[0] = {{fr.begin, fr.end}};
      if (fr.boundary_begin > fr.begin)
        entry.acc[1] = {{fr.begin, fr.boundary_begin}};
    }
    const taskgraph::ClassMap::CellRange& cr = classes.cell_range[k];
    if (cr.valid()) {
      // Cell task: writes its cells, gathers-and-resets its exact side
      // of each adjacent face.
      ClassAccessRanges& entry = table.cell[k];
      entry.cells = {{cr.begin, cr.end}};
      std::array<std::vector<index_t>, 2> slots;
      for (index_t c = cr.begin; c < cr.end; ++c)
        for (const index_t f : mesh.cell_faces(c))
          slots[mesh.face_cell(f, 0) == c ? 0 : 1].push_back(f);
      entry.acc[0] = compress_to_ranges(std::move(slots[0]));
      entry.acc[1] = compress_to_ranges(std::move(slots[1]));
    }
  }
  return table;
}

std::vector<TaskPlan> build_task_plans(const taskgraph::TaskGraph& graph,
                                       const taskgraph::ClassMap& classes,
                                       double dt0) {
  std::vector<TaskPlan> plans;
  plans.reserve(static_cast<std::size_t>(graph.num_tasks()));
  for (index_t t = 0; t < graph.num_tasks(); ++t) {
    const taskgraph::Task& task = graph.task(t);
    const index_t cls = classes.task_class[static_cast<std::size_t>(t)];
    TaskPlan plan{dt0 * std::exp2(static_cast<double>(task.level)), cls,
                  task.type == taskgraph::ObjectType::face, false, 0, 0, 0};
    if (plan.face) {
      const auto& r = classes.face_range[static_cast<std::size_t>(cls)];
      if (r.valid())
        plan = {plan.dt, cls, true, true, r.begin, r.boundary_begin, r.end};
    } else {
      const auto& r = classes.cell_range[static_cast<std::size_t>(cls)];
      if (r.valid()) plan = {plan.dt, cls, false, true, r.begin, r.end, r.end};
    }
    plans.push_back(plan);
  }
  return plans;
}

void record_class_ranges(const ClassAccessRanges& ranges, bool face_task) {
  const verify::AccessMode cell_mode =
      face_task ? verify::AccessMode::read : verify::AccessMode::write;
  for (const IdRange& r : ranges.cells)
    verify::record_access_range(verify::ObjectKind::cell_state, r.begin, r.end,
                                cell_mode);
  for (const IdRange& r : ranges.acc[0])
    verify::record_write_range(verify::ObjectKind::face_acc_side0, r.begin,
                               r.end);
  for (const IdRange& r : ranges.acc[1])
    verify::record_write_range(verify::ObjectKind::face_acc_side1, r.begin,
                               r.end);
}

}  // namespace tamp::solver

