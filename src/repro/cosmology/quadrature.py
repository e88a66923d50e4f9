"""Adaptive Gauss–Kronrod quadrature: QUADPACK's QAGS in pure Python.

The sigma_8 normalisation of the power spectrum (paper Sec. 2.1) and the
non-EdS growth factor D(a) are one-dimensional integrals over finite
ranges.  They are computed by this transcription of QUADPACK's QAGS
(Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner 1983): ``dqagse``
with its 21-point Gauss–Kronrod rule ``dqk21``, the error-list ordering
``dqpsrt`` and Wynn's epsilon extrapolation ``dqelg``.

The transcription keeps QUADPACK's Gauss–Kronrod constants and the order
of every floating-point operation, and hands the integrand its abscissae
as Python floats, so it returns the same result, error estimate and
status bit for bit as ``scipy.integrate.quad`` with the same tolerances
and ``limit`` (``tests/test_quadrature.py`` holds it to that).  The
point is start-up cost: the paper's collapse run loads no scipy.

The work arrays keep QUADPACK's 1-based indexing; slot 0 is unused.
"""

from __future__ import annotations

import sys
import warnings

__all__ = ["EPSABS", "EPSREL", "dqagse", "qags"]

# scipy.integrate.quad's default tolerances
EPSABS = 1.49e-8
EPSREL = 1.49e-8

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)

# 21-point Kronrod abscissae; the even ones are the 10-point Gauss nodes
_XGK = (
    None,
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
    0.000000000000000000000000000000000,
)
# weights of the 21-point Kronrod rule
_WGK = (
    None,
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# weights of the 10-point Gauss rule
_WG = (
    None,
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

_MESSAGES = {
    1: "the maximum number of subdivisions ({limit}) has been achieved",
    2: "roundoff error prevents the requested tolerance from being achieved",
    3: "extremely bad integrand behaviour occurs at some points of the "
       "integration interval",
    4: "the algorithm does not converge; roundoff error is detected in the "
       "extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


def _dqk21(f, a, b):
    """21-point Gauss–Kronrod rule on [a, b].

    Returns ``(result, abserr, resabs, resasc)``: the Kronrod estimate,
    its error estimate, the rule applied to |f| and to |f - mean|.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)

    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[11] * fc
    resabs = abs(resk)
    for j in range(1, 6):
        jtw = 2 * j
        absc = hlgth * _XGK[jtw]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 1
        absc = hlgth * _XGK[jtwm1]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for j in range(1, 11):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """Keep ``iord`` ordering the largest error estimates descending.

    Inserts the two estimates the last bisection produced and returns
    ``(maxerr, ermax, nrmax)``: the interval to bisect next, its error
    estimate and its rank.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # the error of the bisected interval may have grown: move it up
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        # only as many entries are kept ordered as bisections remain
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax top-down, then errmin bottom-up
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        inserted = False
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                inserted = True
                break
            iord[i - 1] = isucc
        if not inserted:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n, epstab, res3la, nres):
    """Wynn's epsilon algorithm on the partial sums ``epstab[1..n]``.

    Updates ``epstab`` and ``res3la`` in place and returns
    ``(n, result, abserr, nres)``: the new table length, the
    extrapolated limit, its error estimate and the call count.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
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
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements or irregular behaviour: cut the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1.0e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            # shift the table
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if (num // 2) * 2 == num else 1
            ie = newelm + 1
            for _ in range(ie):
                ib2 = ib + 2
                epstab[ib] = epstab[ib2]
                ib = ib2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))
    return n, result, abserr, nres


def dqagse(f, a, b, limit=50):
    """QUADPACK ``dqagse``: integrate ``f`` over [a, b] to
    ``max(EPSABS, EPSREL * |I|)`` by adaptive bisection with
    epsilon extrapolation.

    Returns ``(result, abserr, neval, ier, last)``: the integral, its
    error estimate, the number of integrand calls, the status (0 on
    success, 1-5 as in ``_MESSAGES``) and the number of subintervals
    used.
    """
    a = float(a)
    b = float(b)
    ier = 0
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier, last

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0

    summed = False  # leave through QUADPACK's label 115: sum rlist
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _dqk21(f, a1, b1)
        area2, error2, resabs, defab2 = _dqk21(f, a2, b2)

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1.0e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(EPSABS, EPSREL * abs(area))

        # roundoff, subdivision limit, bad integrand behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before
            # bisecting, decrease the error sum over the larger
            # intervals (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1.0e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not summed:
        # set the final result and error estimate (label 100)
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    summed = True
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                if ier > 2:
                    ier -= 1
                return result, abserr, 42 * last - 21, ier, last
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # test on divergence (label 110)
        if 0.01 > result / area or result / area > 100.0 or errsum > abs(area):
            ier = 6
    # internal codes 3-6 are reported one lower
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier, last


def qags(f, a, b, limit=50):
    """Integrate ``f`` over [a, b] as ``scipy.integrate.quad(f, a, b,
    limit=limit)`` does, returning ``(result, abserr)``.

    A nonzero QUADPACK status raises a ``RuntimeWarning`` naming it.
    """
    if a == b:
        return 0.0, 0.0
    flip, a, b = b < a, min(a, b), max(a, b)
    result, abserr, _, ier, _ = dqagse(f, a, b, limit)
    if ier:
        warnings.warn(f"qags status {ier}: "
                      + _MESSAGES[ier].format(limit=limit)
                      + f"; error estimate {abserr:.3g}",
                      RuntimeWarning, stacklevel=2)
    return (-result if flip else result), abserr
