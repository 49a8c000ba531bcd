#include "lisi/solver_base.hpp"

#include <charconv>
#include <sstream>

#include "obs/obs.hpp"
#include "sparse/convert.hpp"
#include "support/string_util.hpp"
#include "support/timer.hpp"

namespace lisi::detail {

namespace {

int code(ErrorCode c) { return static_cast<int>(c); }

/// The tuner's cache key for one rank's block: a word-wise FNV-1a (one
/// multiply per index) over its shape, row pointers and global columns.
/// Only a cache key: whether two operators share a pattern is decided by
/// the exact DistCsrMatrix::matchBlock, never by this hash.
std::uint64_t tunerFingerprint(const sparse::DistCsrMatrix& a) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(static_cast<std::uint64_t>(a.localRows()));
  mix(static_cast<std::uint64_t>(a.globalCols()));
  mix(static_cast<std::uint64_t>(a.startRow()));
  const sparse::OwnedBlockView v = a.ownedBlockView();
  for (int i = 0; i <= v.rows; ++i) {
    mix(static_cast<std::uint64_t>(v.rowPtr[i]));
  }
  for (int k = 0; k < v.nnz(); ++k) {
    mix(static_cast<std::uint64_t>(a.globalCol(v.colIdx[k])));
  }
  return h;
}

}  // namespace

SolverComponentBase::SolverComponentBase() = default;

int SolverComponentBase::initialize(long comm) {
  try {
    comm_ = comm::commFromHandle(comm);
  } catch (const Error&) {
    return code(ErrorCode::kInvalidArgument);
  }
  initialized_ = true;
  return code(ErrorCode::kOk);
}

int SolverComponentBase::setBlockSize(int bs) {
  if (bs < 1) return code(ErrorCode::kInvalidArgument);
  blockSize_ = bs;
  return code(ErrorCode::kOk);
}

int SolverComponentBase::setStartRow(int startRow) {
  if (startRow < 0) return code(ErrorCode::kInvalidArgument);
  startRow_ = startRow;
  return code(ErrorCode::kOk);
}

int SolverComponentBase::setLocalRows(int rows) {
  if (rows < 0) return code(ErrorCode::kInvalidArgument);
  localRows_ = rows;
  return code(ErrorCode::kOk);
}

int SolverComponentBase::setLocalNNZ(int nnz) {
  if (nnz < 0) return code(ErrorCode::kInvalidArgument);
  localNnz_ = nnz;
  return code(ErrorCode::kOk);
}

int SolverComponentBase::setGlobalCols(int cols) {
  if (cols < 0) return code(ErrorCode::kInvalidArgument);
  globalCols_ = cols;
  return code(ErrorCode::kOk);
}

int SolverComponentBase::setupMatrix(RArray<const double> values,
                                     RArray<const int> rows,
                                     RArray<const int> columns, int nnz) {
  // few_args: COO triplets with 0-based global indices.
  return setupMatrixImpl(values, rows, columns, SparseStruct::kCoo, nnz, nnz,
                         0);
}

int SolverComponentBase::setupMatrix(RArray<const double> values,
                                     RArray<const int> rows,
                                     RArray<const int> columns,
                                     SparseStruct dataStruct, int rowsLength,
                                     int nnz) {
  return setupMatrixImpl(values, rows, columns, dataStruct, rowsLength, nnz,
                         0);
}

int SolverComponentBase::setupMatrix(RArray<const double> values,
                                     RArray<const int> rows,
                                     RArray<const int> columns,
                                     SparseStruct dataStruct, int rowsLength,
                                     int nnz, int offset) {
  return setupMatrixImpl(values, rows, columns, dataStruct, rowsLength, nnz,
                         offset);
}

int SolverComponentBase::setupMatrixImpl(RArray<const double> values,
                                         RArray<const int> rows,
                                         RArray<const int> columns,
                                         SparseStruct dataStruct,
                                         int rowsLength, int nnz, int offset) {
  if (!initialized_) return code(ErrorCode::kBadState);
  if (startRow_ < 0 || localRows_ < 0 || globalCols_ < 0) {
    return code(ErrorCode::kBadState);  // distribution not declared (§6.3)
  }
  if (nnz < 0 || rowsLength < 0 || offset < 0) {
    return code(ErrorCode::kInvalidArgument);
  }
  if (localNnz_ >= 0 && nnz != localNnz_) {
    return code(ErrorCode::kInvalidArgument);  // contradicts setLocalNNZ
  }
  if (values.length() < nnz) return code(ErrorCode::kInvalidArgument);

  try {
    sparse::CsrMatrix local;
    local.rows = localRows_;
    local.cols = globalCols_;
    switch (dataStruct) {
      case SparseStruct::kCoo:
      case SparseStruct::kFem: {
        // rows/columns: nnz global indices; duplicates sum (FEM assembly).
        if (rows.length() < nnz || columns.length() < nnz) {
          return code(ErrorCode::kInvalidArgument);
        }
        sparse::CooMatrix coo;
        coo.rows = localRows_;
        coo.cols = globalCols_;
        coo.rowIdx.reserve(static_cast<std::size_t>(nnz));
        coo.colIdx.reserve(static_cast<std::size_t>(nnz));
        coo.values.assign(values.begin(), values.begin() + nnz);
        for (int k = 0; k < nnz; ++k) {
          const int g = rows[k] - offset;
          if (g < startRow_ || g >= startRow_ + localRows_) {
            return code(ErrorCode::kInvalidArgument);  // not my row
          }
          coo.rowIdx.push_back(g - startRow_);
          coo.colIdx.push_back(columns[k] - offset);
        }
        local = sparse::cooToCsr(coo);
        break;
      }
      case SparseStruct::kCsr: {
        // rows: row-pointer array of length localRows+1 (values offset too,
        // Fortran style); columns: nnz global column indices.
        if (rowsLength != localRows_ + 1 || rows.length() < rowsLength ||
            columns.length() < nnz) {
          return code(ErrorCode::kInvalidArgument);
        }
        local.rowPtr.resize(static_cast<std::size_t>(rowsLength));
        for (int i = 0; i < rowsLength; ++i) {
          local.rowPtr[static_cast<std::size_t>(i)] = rows[i] - offset;
        }
        if (local.rowPtr.front() != 0 || local.rowPtr.back() != nnz) {
          return code(ErrorCode::kInvalidArgument);
        }
        local.colIdx.resize(static_cast<std::size_t>(nnz));
        for (int k = 0; k < nnz; ++k) {
          local.colIdx[static_cast<std::size_t>(k)] = columns[k] - offset;
        }
        local.values.assign(values.begin(), values.begin() + nnz);
        break;
      }
      case SparseStruct::kMsr: {
        // MSR per §5.3: values = [diag(localRows), pad, offdiag...];
        // rows = bindx pointer section (localRows+1 entries, MSR convention
        // bindx[0] = localRows+1, relative to the packed array); columns =
        // the offdiag global column indices (nnz - localRows - 1 entries).
        const int m = localRows_;
        if (rowsLength != m + 1 || rows.length() < rowsLength ||
            nnz < m + 1 || columns.length() < nnz - m - 1) {
          return code(ErrorCode::kInvalidArgument);
        }
        sparse::CooMatrix coo;
        coo.rows = m;
        coo.cols = globalCols_;
        for (int i = 0; i < m; ++i) {
          // Diagonal entry (implicit global column startRow + i).
          coo.rowIdx.push_back(i);
          coo.colIdx.push_back(startRow_ + i);
          coo.values.push_back(values[i]);
          const int b = rows[i] - offset;
          const int e = rows[i + 1] - offset;
          if (b < m + 1 || e < b || e > nnz) {
            return code(ErrorCode::kInvalidArgument);
          }
          for (int k = b; k < e; ++k) {
            coo.rowIdx.push_back(i);
            coo.colIdx.push_back(columns[k - m - 1] - offset);
            coo.values.push_back(values[k]);
          }
        }
        local = sparse::cooToCsr(coo);
        break;
      }
      case SparseStruct::kVbr: {
        // Uniform blocks of setBlockSize: rows = block-row pointer
        // (numBlockRows+1), columns = global block column indices, values =
        // column-major dense blocks in block order.
        const int bs = blockSize_;
        if (bs < 1 || localRows_ % bs != 0 || globalCols_ % bs != 0) {
          return code(ErrorCode::kUnsupported);
        }
        const int nbr = localRows_ / bs;
        if (rowsLength != nbr + 1 || rows.length() < rowsLength) {
          return code(ErrorCode::kInvalidArgument);
        }
        const int nblocks = rows[nbr] - offset;
        if (nblocks < 0 || columns.length() < nblocks ||
            nblocks * bs * bs != nnz) {
          return code(ErrorCode::kInvalidArgument);
        }
        sparse::CooMatrix coo;
        coo.rows = localRows_;
        coo.cols = globalCols_;
        for (int br = 0; br < nbr; ++br) {
          const int bBegin = rows[br] - offset;
          const int bEnd = rows[br + 1] - offset;
          if (bBegin < 0 || bEnd < bBegin || bEnd > nblocks) {
            return code(ErrorCode::kInvalidArgument);
          }
          for (int b = bBegin; b < bEnd; ++b) {
            const int bc = columns[b] - offset;
            const int base = b * bs * bs;
            for (int lj = 0; lj < bs; ++lj) {
              for (int li = 0; li < bs; ++li) {
                coo.rowIdx.push_back(br * bs + li);
                coo.colIdx.push_back(bc * bs + lj);
                coo.values.push_back(values[base + lj * bs + li]);
              }
            }
          }
        }
        local = sparse::cooToCsr(coo);
        break;
      }
      default:
        return code(ErrorCode::kUnsupported);
    }
    local.check();
    // Canonical form (sorted columns, merged duplicates) is what every
    // consumer wants anyway (DistCsrMatrix canonicalizes on construction),
    // and it is what makes the exact pattern check and the value-only
    // update path independent of input entry order.
    local.canonicalize();
    localA_ = std::move(local);
    haveMatrix_ = true;
    matrixDirty_ = true;
  } catch (const Error&) {
    return code(ErrorCode::kInvalidArgument);
  }
  return code(ErrorCode::kOk);
}

int SolverComponentBase::setupRHS(RArray<const double> rightHandSide,
                                  int numLocalRow, int nRhs) {
  if (!initialized_) return code(ErrorCode::kBadState);
  if (numLocalRow != localRows_ || nRhs < 1 ||
      rightHandSide.length() < numLocalRow * nRhs) {
    return code(ErrorCode::kInvalidArgument);
  }
  rhs_.assign(rightHandSide.begin(),
              rightHandSide.begin() + numLocalRow * nRhs);
  nRhs_ = nRhs;
  return code(ErrorCode::kOk);
}

int SolverComponentBase::solve(RArray<double> solution, RArray<double> status,
                               int numLocalRow, int statusLength) {
  if (!initialized_) return code(ErrorCode::kBadState);
  if (numLocalRow != localRows_ || nRhs_ < 1) {
    return code(ErrorCode::kBadState);
  }
  if (solution.length() < numLocalRow * nRhs_ ||
      status.length() < statusLength || statusLength < 0) {
    return code(ErrorCode::kInvalidArgument);
  }
  const bool matrixFree = paramBool("matrix_free", false);
  if (matrixFree && !supportsMatrixFree()) {
    return code(ErrorCode::kUnsupported);
  }
  if (!matrixFree && !haveMatrix_) return code(ErrorCode::kBadState);

  WallTimer total;
  double setupSeconds = 0.0;
  SolveContext ctx;
  ctx.comm = &comm_;
  ctx.localRows = localRows_;
  ctx.startRow = startRow_;

  std::shared_ptr<MatrixFree> mfPort;  // keep alive through the solve
  try {
    if (matrixFree) {
      LISI_CHECK(services_ != nullptr,
                 "matrix-free mode requires CCA services (MatrixFree port)");
      mfPort = std::dynamic_pointer_cast<MatrixFree>(
          services_->getPort(kMatrixFreePortName));
      LISI_CHECK(mfPort != nullptr,
                 "connected MatrixFree port has the wrong type");
      ctx.matrixFree = mfPort.get();
      const int globalRows =
          comm_.allreduceValue(localRows_, comm::ReduceOp::kSum);
      ctx.globalRows = globalRows;
      // The application operator is opaque — it may change arbitrarily
      // between calls — so matrix-free solves always report kNewStructure.
      ctx.change = OperatorChange::kNewStructure;
      // No assembled operator means no nnz to weigh "auto" against, so it
      // resolves to the safe default (double).
      ctx.precision = prec::resolveAuto(
          prec::modeFromString(paramString("precision", ""),
                               prec::modeFromEnv()),
          0);
    } else {
      WallTimer setup;
      if (matrixDirty_ || !distA_) {
        const int rc = agreeOnOperator();
        if (rc != code(ErrorCode::kOk)) return rc;
      }
      setupSeconds += setup.seconds();
      ctx.matrix = distA_;
      ctx.globalRows = distA_->globalRows();
      if (structEpoch_ != lastSolvedStructEpoch_ ||
          lastSolvedKind_ != OperatorKind::kAssembled) {
        ctx.change = OperatorChange::kNewStructure;
      } else if (valueEpoch_ != lastSolvedValueEpoch_) {
        ctx.change = OperatorChange::kSameStructure;
      } else {
        ctx.change = OperatorChange::kSameOperator;
      }

      // Mixed-precision mode: parameter beats environment (LISI_PRECISION),
      // default double.  "auto" weighs the agreed global nonzeros against
      // the bandwidth-win threshold, so every rank resolves the same mode.
      ctx.precision = prec::resolveAuto(
          prec::modeFromString(paramString("precision", ""),
                               prec::modeFromEnv()),
          globalNnz_);

      // Structure-keyed autotuning (DESIGN.md).  Replay is free: once this
      // structure epoch has been tuned under the current mode, later solves
      // skip even the cache lookup — no communication, no locks, just the
      // already-pinned schedule.  The kAuto size gate reads the agreed
      // nonzeros, so the key and its allreduce are paid only where the
      // tuner will look the key up.
      const tune::Mode tuneMode =
          tune::modeFromString(paramString("tune", ""), tune::modeFromEnv());
      if (tuneMode != tune::Mode::kOff) {
        if (tunedStructEpoch_ == structEpoch_ && tunedMode_ == tuneMode) {
          tune::noteReplayHit();
        } else {
          tune::TuneInput in;
          in.comm = comm_;
          in.mode = tuneMode;
          in.globalNnz = globalNnz_;
          if (!tune::autoSkips(tuneMode, globalNnz_)) {
            std::uint64_t key = tunerFingerprint(*distA_);
            comm_.allreduce(std::span<const std::uint64_t>(&key, 1),
                            std::span<std::uint64_t>(&key, 1),
                            comm::ReduceOp::kSum);
            in.key = {key, comm_.size()};
          }
          in.structureChanged = tunedStructEpoch_ != 0;
          in.retunesSoFar = tuneRetunes_;
          in.retuneBudget = paramInt("tune_retune_budget", 4);
          const tune::Decision d = tune::tuneOperator(in);
          if (d.probed && in.structureChanged) ++tuneRetunes_;
          tunedStructEpoch_ = structEpoch_;
          tunedMode_ = tuneMode;
        }
      }
    }
  } catch (const Error&) {
    return code(ErrorCode::kInternal);
  }

  obs::count("lisi.solve.calls");
  if (ctx.precision == prec::Mode::kMixed) {
    prec::noteMixedSolve();
    obs::count("prec.mixed_solves");
  }
  switch (ctx.change) {
    case OperatorChange::kSameOperator:
      obs::count("lisi.change.same_operator");
      break;
    case OperatorChange::kSameStructure:
      obs::count("lisi.change.same_structure");
      break;
    case OperatorChange::kNewStructure:
      obs::count("lisi.change.new_structure");
      break;
  }
  BackendStats last{};
  WallTimer solveTimer;
  obs::Span solveSpan("lisi.backend_solve");
  const auto m = static_cast<std::size_t>(numLocalRow);
  const auto nv = static_cast<std::size_t>(nRhs_);
  std::span<double> xAll(solution.data(), m * nv);
  if (!paramBool("use_initial_guess", false)) {
    std::fill(xAll.begin(), xAll.end(), 0.0);
  }
  {
    int rc = code(ErrorCode::kOk);
    try {
      rc = backendSolveMulti(ctx, std::span<const double>(rhs_.data(), m * nv),
                             xAll, nRhs_, last);
    } catch (const Error&) {
      rc = code(ErrorCode::kNumericFailure);
    }
    if (rc != code(ErrorCode::kOk)) return rc;
  }
  lastSolvedStructEpoch_ = structEpoch_;
  lastSolvedValueEpoch_ = valueEpoch_;
  lastSolvedKind_ =
      matrixFree ? OperatorKind::kMatrixFree : OperatorKind::kAssembled;

  const double solveSeconds = solveTimer.seconds();
  (void)total;
  const double entries[kStatusLength] = {
      static_cast<double>(last.iterations), last.residualNorm,
      last.converged ? 1.0 : 0.0, setupSeconds, solveSeconds};
  for (int i = 0; i < statusLength && i < kStatusLength; ++i) {
    status[i] = entries[i];
  }
  return last.converged ? code(ErrorCode::kOk)
                        : code(ErrorCode::kNumericFailure);
}

int SolverComponentBase::agreeOnOperator() {
  obs::Span span("lisi.setup");
  // Local verdicts on the freshly adapted block, from one pass over it: does
  // it keep the held operator's pattern (exactly, entry by entry) and its
  // values (bitwise), is every value finite, and can the backend use it.
  sparse::BlockMatch match;
  if (distA_ && distA_->startRow() == startRow_) {
    match = distA_->matchBlock(localA_);
  } else {
    match.finite = sparse::allFinite(localA_.values);
  }
  const bool accepted = match.finite && acceptsOperator(localA_, startRow_);
  // One sum-allreduce agrees on every verdict, on the nonzeros and on the
  // row partition (each rank fills its own extent slots), so all ranks
  // take the same branch below and a rebuild needs no further collective.
  enum Lane { kNewPattern, kNewValues, kNnz, kNonFinite, kRejected, kExtents };
  const int p = comm_.size();
  std::vector<long long> lanes(kExtents + 2 * static_cast<std::size_t>(p), 0);
  lanes[kNewPattern] = match.pattern ? 0 : 1;
  lanes[kNewValues] = match.values ? 0 : 1;
  lanes[kNnz] = localA_.nnz();
  lanes[kNonFinite] = match.finite ? 0 : 1;
  lanes[kRejected] = accepted ? 0 : 1;
  const auto extent = [&lanes](int r) {
    return lanes.begin() + kExtents + 2 * static_cast<std::ptrdiff_t>(r);
  };
  extent(comm_.rank())[0] = startRow_;
  extent(comm_.rank())[1] = localA_.rows;
  comm_.allreduce(std::span<const long long>(lanes),
                  std::span<long long>(lanes), comm::ReduceOp::kSum);
  std::vector<int> rowStarts(static_cast<std::size_t>(p) + 1, 0);
  bool tiled = true;  // the ranks' rows tile [0, globalRows) in rank order
  for (int r = 0; r < p; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    tiled = tiled && extent(r)[0] == rowStarts[ru];
    rowStarts[ru + 1] = rowStarts[ru] + static_cast<int>(extent(r)[1]);
  }
  if (lanes[kNonFinite] > 0 || lanes[kRejected] > 0 || !tiled) {
    // NaN/Inf, an operator the backend cannot use, or rows that do not
    // tile, on some rank: every rank rejects the block and keeps what it
    // held.
    return code(ErrorCode::kInvalidArgument);
  }
  globalNnz_ = lanes[kNnz];
  if (lanes[kNewPattern] == 0 && lanes[kNewValues] == 0) {
    // Bitwise the operator already held: kSameOperator, no refresh.
    localA_ = {};
  } else if (lanes[kNewPattern] == 0) {
    // Value-only refresh: halo plan, ghost column map, and scratch all
    // survive; no communication, no allocation.  The adapted block has
    // served its purpose.
    distA_->updateValues(localA_);
    localA_ = {};
    ++valueEpoch_;
  } else {
    // Every rank rebuilds the distributed operator together, on the agreed
    // partition.  The old operator goes first (a backend view may still
    // hold it), and the adapted block moves in: one copy.
    distA_.reset();
    distA_ = std::make_shared<sparse::DistCsrMatrix>(
        comm_, std::move(rowStarts), globalCols_, std::move(localA_));
    ++structEpoch_;
    ++valueEpoch_;
  }
  matrixDirty_ = false;
  return code(ErrorCode::kOk);
}

int SolverComponentBase::backendSolveMulti(const SolveContext& ctx,
                                           std::span<const double> b,
                                           std::span<double> x, int nRhs,
                                           BackendStats& stats) {
  const auto m = static_cast<std::size_t>(ctx.localRows);
  for (int k = 0; k < nRhs; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    const int rc =
        backendSolve(ctx, b.subspan(ku * m, m), x.subspan(ku * m, m), stats);
    if (rc != code(ErrorCode::kOk)) return rc;
  }
  return code(ErrorCode::kOk);
}

bool SolverComponentBase::isCommonParam(const std::string& key) {
  return key == "solver" || key == "preconditioner" || key == "tol" ||
         key == "atol" || key == "maxits" || key == "matrix_free" ||
         key == "use_initial_guess" || key == "reuse_preconditioner" ||
         key == "tune" || key == "tune_retune_budget" || key == "precision" ||
         key == "multi_rhs";
}

bool SolverComponentBase::acceptsParam(const std::string& key) const {
  return isCommonParam(key);
}

int SolverComponentBase::storeParam(const std::string& key,
                                    const std::string& value) {
  const std::string k = toLower(trim(key));
  if (k.empty()) return code(ErrorCode::kInvalidArgument);
  if (!acceptsParam(k)) return code(ErrorCode::kUnsupported);
  params_[k] = trim(value);
  return code(ErrorCode::kOk);
}

int SolverComponentBase::set(const std::string& key,
                             const std::string& value) {
  return storeParam(key, value);
}

int SolverComponentBase::setInt(const std::string& key, int value) {
  return storeParam(key, std::to_string(value));
}

int SolverComponentBase::setBool(const std::string& key, bool value) {
  return storeParam(key, value ? "true" : "false");
}

int SolverComponentBase::setDouble(const std::string& key, double value) {
  // Shortest round-trip representation ("1e-07", not a 17-digit expansion).
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  LISI_ASSERT(ec == std::errc{});
  return storeParam(key, std::string(buf, end));
}

std::string SolverComponentBase::get_all() {
  std::ostringstream os;
  os << "backend=" << backendName() << ';';
  for (const auto& [k, v] : params_) os << k << '=' << v << ';';
  return os.str();
}

std::string SolverComponentBase::paramString(const std::string& key,
                                             const std::string& fallback) const {
  auto it = params_.find(key);
  return it == params_.end() ? fallback : it->second;
}

double SolverComponentBase::paramDouble(const std::string& key,
                                        double fallback) const {
  auto it = params_.find(key);
  if (it == params_.end()) return fallback;
  return parseDouble(it->second).value_or(fallback);
}

int SolverComponentBase::paramInt(const std::string& key, int fallback) const {
  auto it = params_.find(key);
  if (it == params_.end()) return fallback;
  const auto v = parseInt(it->second);
  return v ? static_cast<int>(*v) : fallback;
}

bool SolverComponentBase::paramBool(const std::string& key,
                                    bool fallback) const {
  auto it = params_.find(key);
  if (it == params_.end()) return fallback;
  return parseBool(it->second).value_or(fallback);
}

}  // namespace lisi::detail
