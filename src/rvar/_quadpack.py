"""Adaptive Gauss-Kronrod quadrature: a port of QUADPACK's QAGS (``dqagse``).

Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK* (1983).
``quad`` bisects the subinterval with the largest error estimate, rates each
piece with the 21-point Kronrod rule (``qk21``) and its embedded 10-point
Gauss rule, and accelerates the sequence of partial sums with Wynn's epsilon
algorithm (``_qelg``) once bisection reaches the smallest intervals, so an
integrable endpoint singularity costs a few hundred evaluations, not
thousands. The control flow, the error estimate and the order of every sum
follow the Fortran routines, so results and evaluation counts match
``scipy.integrate.quad`` on finite intervals without importing scipy.

The module lives outside the layer modules so that ``perfbench/tracing.py``
counts ``quad`` once, through the name ``orthant`` binds it to.
"""

import sys

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# Kronrod abscissae on [-1, 1], largest first, and their weights; those at
# odd indices here (xgk(2), xgk(4), ... in QUADPACK) are the 10-point Gauss nodes
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980227782,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# 10-point Gauss weights for _XGK[1], _XGK[3], ..., _XGK[9]
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def qk21(f, a: float, b: float):
    """21-point Gauss-Kronrod rule on [a, b] (QUADPACK ``dqk21``).

    Returns (result, abserr, resabs, resasc): the Kronrod value, QUADPACK's
    error estimate, the rule applied to |f| and to |f - mean f|.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """Keep ``iord`` sorted by descending error (QUADPACK ``dqpsrt``).

    ``last`` counts the intervals, the newest being ``last - 1``; ``nrmax``
    is the position in ``iord`` of the interval to bisect next. Only the
    first ``limit + 3 - last`` positions are kept in order once more than
    half the subdivisions are used. Returns (maxerr, errmax, nrmax).
    """
    if last <= 2:
        iord[0], iord[1] = 0, 1
    else:
        # a bisection that raised the error moves maxerr up the list
        errmax = elist[maxerr]
        while nrmax > 0:
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        top = (last if last <= limit // 2 + 2 else limit + 3 - last) - 1
        bnd = top - 1
        errmin = elist[last - 1]
        # insert errmax top-down, then errmin bottom-up
        i = nrmax + 1
        while i <= bnd:
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
            i += 1
        else:
            iord[bnd] = maxerr
            iord[top] = last - 1
            maxerr = iord[nrmax]
            return maxerr, elist[maxerr], nrmax
        iord[i - 1] = maxerr
        k = bnd
        for _ in range(i, bnd + 1):
            isucc = iord[k]
            if errmin < elist[isucc]:
                break
            iord[k + 1] = isucc
            k -= 1
        iord[k + 1] = last - 1
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab, res3la, nres: int):
    """One step of Wynn's epsilon algorithm (QUADPACK ``dqelg``).

    ``epstab[:n]`` holds the table's last diagonal, whose newest entry is
    the latest partial sum; ``res3la`` the last three extrapolated values
    and ``nres`` how many have been made. Updates both tables in place and
    returns (n, result, abserr, nres) with the table's new length.
    """
    nres += 1
    result = epstab[n - 1]
    if n < 3:
        return n, result, _OFLOW, nres
    abserr = _OFLOW
    num = n
    newelm = (n - 1) // 2
    epstab[n + 1] = epstab[n - 1]
    epstab[n - 1] = _OFLOW
    k1 = n - 1
    for i in range(1, newelm + 1):
        res = epstab[k1 + 2]
        e0 = epstab[k1 - 2]
        e1 = epstab[k1 - 1]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            # irregular table: drop its older part
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res
    if n == 50:
        n = 49
    # shift the table
    ib = 0 if num % 2 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[:n] = epstab[num - n : num]
    if nres < 4:
        res3la[nres - 1] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[2]) + abs(result - res3la[1]) + abs(result - res3la[0])
        res3la[0], res3la[1], res3la[2] = res3la[1], res3la[2], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _sum(values) -> float:
    # left to right, as QUADPACK sums; builtin sum() compensates from 3.12 on
    total = 0.0
    for v in values:
        total += v
    return total


def quad(f, a: float, b: float, *, epsabs: float, epsrel: float, limit: int):
    """Integral of f over the finite interval [a, b] (QUADPACK ``dqagse``).

    Stops once the error estimate is at most max(epsabs, epsrel |integral|),
    after ``limit`` subintervals, or when QUADPACK detects roundoff, a bad
    integrand point or a diverging extrapolation; then it returns its best
    estimate, as ``scipy.integrate.quad`` does without the warning.
    Needs limit >= 1, and epsabs > 0 or epsrel >= 50 machine epsilons.
    Returns (value, abserr, neval), neval being the count of calls of f.
    """
    result, abserr, defabs, resasc = qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if (
        (abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
        or limit == 1
        or (abserr <= errbnd and abserr != resasc)
        or abserr == 0.0
    ):
        return result, abserr, 21

    alist, blist, rlist, elist = [a], [b], [result], [abserr]
    iord = [0] * limit
    rlist2 = [0.0] * 52
    rlist2[0] = result
    res3la = [0.0] * 3
    maxerr, errmax, nrmax = 0, abserr, 0
    area, errsum = result, abserr
    abserr = _OFLOW
    nres, numrl2, ktmin = 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    ier = ierro = 0
    small = erlarg = ertest = correc = 0.0

    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b2 = blist[maxerr]
        b1 = a2 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, _, defab1 = qk21(f, a1, b1)
        area2, error2, _, defab2 = qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # roundoff keeps the error from falling
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # the interval shrank to a point
        # the half with the larger error keeps the bisected interval's slot
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist.append(area1)
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            rlist[maxerr] = area1
            rlist.append(area2)
            elist[maxerr] = error1
            elist.append(error2)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _sum(rlist), errsum, 42 * last - 21
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[1] = area
            continue
        if noext:
            continue
        # erlarg sums the errors of the intervals larger than `small`
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            # the interval to bisect next is among the smallest
            extrap = True
            nrmax = 1
        if ierro != 3 and erlarg > ertest:
            # bisect the large intervals first while their error dominates
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        # go back to bisecting the interval with the largest error
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        small *= 0.5
        erlarg = errsum

    neval = 42 * last - 21
    # keep the extrapolated value unless the plain sum is the better estimate
    if abserr == _OFLOW:
        return _sum(rlist), errsum, neval
    if ier + ierro != 0:
        if ierro == 3:
            abserr += correc
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _sum(rlist), errsum, neval
        elif abserr > errsum:
            return _sum(rlist), errsum, neval
    return result, abserr, neval
