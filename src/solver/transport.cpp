#include "solver/transport.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "solver/simd_kernels.hpp"
#include "taskgraph/scheme.hpp"
#include "verify/access.hpp"

namespace tamp::solver {

using mesh::Vec3;

namespace {

/// Pointer bundles into the solver's storage for the streaming kernels.
/// Side s of face f is combined-accumulator column s: acc.var(s)[f].
simdk::TransportFluxCtx make_flux_ctx(const std::vector<double>& phi,
                                      PaddedVars& acc,
                                      const KernelGeometry& g,
                                      const TransportConfig& config) {
  simdk::TransportFluxCtx ctx;
  ctx.phi = phi.data();
  ctx.acc0 = acc.var(0);
  ctx.acc1 = acc.var(1);
  ctx.face_a = g.face_a.data();
  ctx.face_b = g.face_b.data();
  ctx.nx = g.nx.data();
  ctx.ny = g.ny.data();
  ctx.nz = g.nz.data();
  ctx.area = g.area.data();
  ctx.dist = g.dist.data();
  ctx.vx = config.velocity.x;
  ctx.vy = config.velocity.y;
  ctx.vz = config.velocity.z;
  ctx.diffusivity = config.diffusivity;
  ctx.ambient = config.ambient;
  return ctx;
}

simdk::TransportUpdateCtx make_update_ctx(std::vector<double>& phi,
                                          PaddedVars& acc,
                                          const KernelGeometry& g) {
  simdk::TransportUpdateCtx ctx;
  ctx.phi = phi.data();
  ctx.acc = acc.var(0);
  ctx.inv_vol = g.inv_vol.data();
  ctx.xadj = g.gather_xadj.data();
  ctx.slot = g.gather_slot.data();
  ctx.sign = g.gather_sign.data();
  return ctx;
}

}  // namespace

TransportSolver::TransportSolver(mesh::Mesh& mesh, TransportConfig config)
    : mesh_(mesh), config_(config),
      geom_(build_kernel_geometry(
          mesh, static_cast<eindex_t>(padded_stride(mesh.num_faces())))),
      acc_(mesh.num_faces(), 2),
      simd_level_(simd::resolve(config.simd)) {
  TAMP_EXPECTS(config.diffusivity >= 0, "diffusivity must be non-negative");
  TAMP_EXPECTS(config.cfl > 0 && config.cfl <= 1.0, "CFL must be in (0,1]");
  TAMP_EXPECTS(config.max_levels >= 1, "need at least one temporal level");
  phi_.assign(static_cast<std::size_t>(mesh.num_cells()), 0.0);
}

void TransportSolver::initialize_uniform(double value) {
  std::fill(phi_.begin(), phi_.end(), value);
  acc_.fill(0.0);
  boundary_net_.store(0.0, std::memory_order_relaxed);
  time_ = 0.0;
}

void TransportSolver::add_blob(Vec3 center, double radius, double amplitude) {
  TAMP_EXPECTS(radius > 0, "blob radius must be positive");
  for (index_t c = 0; c < mesh_.num_cells(); ++c) {
    const double d = distance(mesh_.cell_centroid(c), center);
    phi_[static_cast<std::size_t>(c)] +=
        amplitude * std::exp(-(d * d) / (radius * radius));
  }
}

void TransportSolver::set_value(index_t cell, double value) {
  TAMP_EXPECTS(cell >= 0 && cell < mesh_.num_cells(), "cell out of range");
  phi_[static_cast<std::size_t>(cell)] = value;
}

std::vector<level_t> TransportSolver::assign_temporal_levels() {
  const index_t n = mesh_.num_cells();
  const double speed = norm(config_.velocity);
  std::vector<double> dt_cell(static_cast<std::size_t>(n));
  double dt_min = std::numeric_limits<double>::max();
  for (index_t c = 0; c < n; ++c) {
    const double h = std::cbrt(mesh_.cell_volume(c));
    // Combined explicit bound: advective h/|u| and diffusive h²/(6D).
    double dt = std::numeric_limits<double>::max();
    if (speed > 0) dt = std::min(dt, h / speed);
    if (config_.diffusivity > 0)
      dt = std::min(dt, h * h / (6.0 * config_.diffusivity));
    TAMP_EXPECTS(dt < std::numeric_limits<double>::max(),
                 "transport needs a velocity or a diffusivity");
    dt_cell[static_cast<std::size_t>(c)] = config_.cfl * dt;
    dt_min = std::min(dt_min, dt_cell[static_cast<std::size_t>(c)]);
  }
  dt0_ = dt_min;
  std::vector<level_t> levels(static_cast<std::size_t>(n));
  for (index_t c = 0; c < n; ++c) {
    const auto raw = static_cast<int>(
        std::floor(std::log2(dt_cell[static_cast<std::size_t>(c)] / dt_min)));
    levels[static_cast<std::size_t>(c)] = static_cast<level_t>(
        std::clamp(raw, 0, static_cast<int>(config_.max_levels) - 1));
  }
  mesh_.set_cell_levels(levels);
  return levels;
}

void TransportSolver::flux_face(index_t f, double dtf) {
  const auto sf = static_cast<std::size_t>(f);
  const index_t a = mesh_.face_cell(f, 0);
  const Vec3 n = mesh_.face_normal(f);
  const double area = mesh_.face_area(f);
  const double phi_a = phi_[static_cast<std::size_t>(a)];
  const double un = dot(config_.velocity, n);
  // Race-verifier annotations (no-ops unless instrumented). boundary_net_
  // is deliberately NOT recorded: it is an atomic counter shared across
  // otherwise-unordered boundary face tasks by design.
  verify::record_read(verify::ObjectKind::cell_state, a);
  verify::record_write(verify::ObjectKind::face_acc_side0, f);

  if (mesh_.is_boundary_face(f)) {
    // Upwind inflow/outflow; no diffusive wall flux (insulated).
    const double flux = un * (un >= 0 ? phi_a : config_.ambient);
    const double amount = flux * area * dtf;
    acc_.var(0)[sf] += amount;
    boundary_net_.fetch_add(amount, std::memory_order_relaxed);
    return;
  }

  const index_t b = mesh_.face_cell(f, 1);
  verify::record_read(verify::ObjectKind::cell_state, b);
  verify::record_write(verify::ObjectKind::face_acc_side1, f);
  const double phi_b = phi_[static_cast<std::size_t>(b)];
  // Upwind convection along the face normal.
  double flux = un * (un >= 0 ? phi_a : phi_b);
  // Two-point diffusion with the centroid distance.
  if (config_.diffusivity > 0) {
    const double dist =
        std::max(distance(mesh_.cell_centroid(a), mesh_.cell_centroid(b)),
                 1e-300);
    flux -= config_.diffusivity * (phi_b - phi_a) / dist;
  }
  const double amount = flux * area * dtf;
  acc_.var(0)[sf] += amount;
  acc_.var(1)[sf] += amount;
}

void TransportSolver::update_cell(index_t c) {
  const auto sc = static_cast<std::size_t>(c);
  const double inv_v = geom_.inv_vol[sc];
  verify::record_write(verify::ObjectKind::cell_state, c);
  for (const index_t f : mesh_.cell_faces(c)) {
    const auto sf = static_cast<std::size_t>(f);
    const int side = mesh_.face_cell(f, 0) == c ? 0 : 1;
    verify::record_write(side == 0 ? verify::ObjectKind::face_acc_side0
                                   : verify::ObjectKind::face_acc_side1,
                         f);
    const double sign = side == 0 ? -1.0 : 1.0;
    phi_[sc] += sign * acc_.var(side)[sf] * inv_v;
    acc_.var(side)[sf] = 0.0;
  }
}

void TransportSolver::run_iteration() {
  TAMP_EXPECTS(dt0_ > 0, "call assign_temporal_levels() first");
  const taskgraph::TemporalScheme scheme(
      static_cast<level_t>(mesh_.max_level() + 1));
  for (index_t s = 0; s < scheme.num_subiterations(); ++s) {
    for (level_t tau = scheme.top_level(s);; --tau) {
      const double dt_tau = dt0_ * std::exp2(static_cast<double>(tau));
      for (index_t f = 0; f < mesh_.num_faces(); ++f)
        if (mesh_.face_level(f) == tau) flux_face(f, dt_tau);
      for (index_t c = 0; c < mesh_.num_cells(); ++c)
        if (mesh_.cell_level(c) == tau) update_cell(c);
      if (tau == 0) break;
    }
    time_ += dt0_;
  }
}

TransportSolver::IterationTasks TransportSolver::make_iteration_tasks(
    const std::vector<part_t>& domain_of_cell, part_t ndomains) {
  auto classes = std::make_shared<taskgraph::ClassMap>();
  taskgraph::TaskGraph graph = taskgraph::generate_task_graph(
      mesh_, domain_of_cell, ndomains, {}, classes.get());
  runtime::TaskBody body = make_iteration_body(graph, std::move(classes));
  return {std::move(graph), std::move(body)};
}

runtime::TaskBody TransportSolver::make_iteration_body(
    const taskgraph::TaskGraph& graph,
    std::shared_ptr<const taskgraph::ClassMap> classes) {
  TAMP_EXPECTS(dt0_ > 0, "call assign_temporal_levels() first");
  TAMP_EXPECTS(classes != nullptr, "iteration body needs a class map");
  auto access = std::make_shared<ClassAccessTable>(
      build_class_access_ranges(mesh_, *classes));
  auto plans = std::make_shared<const std::vector<TaskPlan>>(
      build_task_plans(graph, *classes, dt0_));
  auto body = [this, classes, plans, access](index_t t) {
    const TaskPlan& plan = (*plans)[static_cast<std::size_t>(t)];
    const auto scls = static_cast<std::size_t>(plan.cls);
    if (plan.face) {
      if (plan.ranged) {
        if (verify::recording_active())
          record_class_ranges(access->face[scls], /*face_task=*/true);
        const simdk::TransportFluxCtx ctx =
            make_flux_ctx(phi_, acc_, geom_, config_);
        simdk::transport_flux_interior(simd_level_, ctx, plan.begin, plan.mid,
                                       plan.dt);
        // One atomic add per boundary sub-range: boundary_net_ is a
        // diagnostic total, compared with tolerance, never bitwise.
        if (plan.mid < plan.end)
          boundary_net_.fetch_add(
              simdk::transport_flux_boundary(simd_level_, ctx, plan.mid,
                                             plan.end, plan.dt),
              std::memory_order_relaxed);
      } else {
        for (const index_t f : classes->class_faces[scls])
          flux_face(f, plan.dt);
      }
    } else {
      if (plan.ranged) {
        if (verify::recording_active())
          record_class_ranges(access->cell[scls], /*face_task=*/false);
        simdk::transport_update(simd_level_,
                                make_update_ctx(phi_, acc_, geom_),
                                plan.begin, plan.end);
      } else {
        for (const index_t c : classes->class_cells[scls])
          update_cell(c);
      }
    }
  };
  return body;
}

void TransportSolver::note_tasks_complete() {
  const taskgraph::TemporalScheme scheme(
      static_cast<level_t>(mesh_.max_level() + 1));
  time_ += dt0_ * static_cast<double>(scheme.num_subiterations());
}

runtime::ExecutionReport TransportSolver::run_iteration_tasks(
    const std::vector<part_t>& domain_of_cell, part_t ndomains,
    const std::vector<part_t>& domain_to_process,
    const runtime::RuntimeConfig& runtime_config) {
  const IterationTasks iter = make_iteration_tasks(domain_of_cell, ndomains);
  runtime::ExecutionReport report =
      runtime::execute(iter.graph, domain_to_process, runtime_config,
                       iter.body);
  note_tasks_complete();
  return report;
}

double TransportSolver::total_scalar() const {
  double total = 0;
  for (index_t c = 0; c < mesh_.num_cells(); ++c)
    total += mesh_.cell_volume(c) * phi_[static_cast<std::size_t>(c)];
  for (index_t f = 0; f < mesh_.num_faces(); ++f) {
    total -= acc_.at(0, f);  // side-0 pending (incl. boundary: already left)
    if (!mesh_.is_boundary_face(f)) total += acc_.at(1, f);
  }
  return total;
}

double TransportSolver::min_value() const {
  return *std::min_element(phi_.begin(), phi_.end());
}

double TransportSolver::max_value() const {
  return *std::max_element(phi_.begin(), phi_.end());
}

bool TransportSolver::values_finite() const {
  for (const double v : phi_)
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace tamp::solver
