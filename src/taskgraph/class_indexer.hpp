// Object classification of Algorithm 1 (§II-B), header-only so the
// locality renumbering (partition/reorder.cpp) sorts by the very class
// ids the task generator and the incremental patcher (taskgraph/patch.*)
// emit. An object class is the (domain, temporal level τ, locality)
// triple; its dense id, the locality rules and the face-owner rule live
// here exactly once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mesh/mesh.hpp"
#include "support/types.hpp"
#include "taskgraph/taskgraph.hpp"

namespace tamp::taskgraph {

/// Dense id of an object class: (domain, level, locality), external
/// before internal.
struct ClassIndexer {
  part_t ndomains;
  level_t nlev;

  [[nodiscard]] index_t count() const {
    return ndomains * static_cast<index_t>(nlev) * 2;
  }
  [[nodiscard]] index_t id(part_t d, level_t tau, Locality loc) const {
    return (d * static_cast<index_t>(nlev) + static_cast<index_t>(tau)) * 2 +
           static_cast<index_t>(loc);
  }
};

/// Per-object classification. A face is external when its two adjacent
/// cells live in different domains and is owned by the lower-indexed
/// one; boundary faces are internal and owned by their single cell's
/// domain. A cell is external when any of its faces is.
struct Classifier {
  const mesh::Mesh& mesh;
  const std::vector<part_t>& domain_of_cell;
  ClassIndexer cls;

  [[nodiscard]] part_t domain(index_t c) const {
    return domain_of_cell[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] Locality face_locality(index_t f) const {
    if (mesh.is_boundary_face(f)) return Locality::internal;
    return domain(mesh.face_cell(f, 0)) == domain(mesh.face_cell(f, 1))
               ? Locality::internal
               : Locality::external;
  }
  [[nodiscard]] part_t face_owner(index_t f) const {
    const part_t da = domain(mesh.face_cell(f, 0));
    if (mesh.is_boundary_face(f)) return da;
    return std::min(da, domain(mesh.face_cell(f, 1)));
  }
  [[nodiscard]] index_t face_class(index_t f) const {
    return cls.id(face_owner(f), mesh.face_level(f), face_locality(f));
  }
  [[nodiscard]] Locality cell_locality(index_t c) const {
    for (const index_t f : mesh.cell_faces(c))
      if (face_locality(f) == Locality::external) return Locality::external;
    return Locality::internal;
  }
  [[nodiscard]] index_t cell_class(index_t c, Locality loc) const {
    return cls.id(domain(c), mesh.cell_level(c), loc);
  }
  [[nodiscard]] index_t cell_class(index_t c) const {
    return cell_class(c, cell_locality(c));
  }
};

/// Class id of every cell and every face.
struct ObjectClasses {
  std::vector<index_t> cell;
  std::vector<index_t> face;
};

/// Classify the whole mesh in one pass over the faces (which also marks
/// the cells an external face makes external) and one over the cells.
[[nodiscard]] inline ObjectClasses classify(const Classifier& cf) {
  const index_t ncells = cf.mesh.num_cells();
  const index_t nfaces = cf.mesh.num_faces();
  ObjectClasses oc;
  oc.face.resize(static_cast<std::size_t>(nfaces));
  std::vector<Locality> cell_loc(static_cast<std::size_t>(ncells),
                                 Locality::internal);
  for (index_t f = 0; f < nfaces; ++f) {
    const Locality loc = cf.face_locality(f);
    oc.face[static_cast<std::size_t>(f)] =
        cf.cls.id(cf.face_owner(f), cf.mesh.face_level(f), loc);
    if (loc == Locality::external) {
      cell_loc[static_cast<std::size_t>(cf.mesh.face_cell(f, 0))] = loc;
      cell_loc[static_cast<std::size_t>(cf.mesh.face_cell(f, 1))] = loc;
    }
  }
  oc.cell.resize(static_cast<std::size_t>(ncells));
  for (index_t c = 0; c < ncells; ++c)
    oc.cell[static_cast<std::size_t>(c)] =
        cf.cell_class(c, cell_loc[static_cast<std::size_t>(c)]);
  return oc;
}

/// Pack a (face class, cell class) adjacency pair into one sortable key.
constexpr std::uint64_t pack_class_pair(index_t face_cls, index_t cell_cls) {
  return static_cast<std::uint64_t>(face_cls) << 32 |
         static_cast<std::uint32_t>(cell_cls);
}

/// Call fn(key) for each (face class, cell class) pair face f contributes
/// under face class `face_cls`: one per adjacent cell.
template <class Fn>
void for_each_class_pair(const mesh::Mesh& mesh,
                         const std::vector<index_t>& cell_class, index_t f,
                         index_t face_cls, Fn&& fn) {
  fn(pack_class_pair(
      face_cls, cell_class[static_cast<std::size_t>(mesh.face_cell(f, 0))]));
  if (!mesh.is_boundary_face(f))
    fn(pack_class_pair(
        face_cls,
        cell_class[static_cast<std::size_t>(mesh.face_cell(f, 1))]));
}

}  // namespace tamp::taskgraph
